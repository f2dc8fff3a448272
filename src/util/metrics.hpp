// Process-wide pipeline metrics: named counters, high-water gauges,
// and log2-binned histograms.
//
// The detector's fast paths degrade silently — batch commutativity
// guards fall back to the serial loop, rings park their producer, the
// expiry heap re-queues stale entries — and whether a given workload
// actually stayed on the fast path is invisible from the outside.
// This registry makes it visible: every pipeline stage counts what it
// did, and a MetricsSnapshot (JSON-serializable) reports it next to
// the throughput numbers.
//
// Design:
//   - Metrics are registered once by name (idempotent; any thread) and
//     addressed afterwards by a small MetricId — the hot path never
//     touches a string or a map.
//   - Each thread writes to its own lazily-allocated shard (a flat
//     slot array), so recording is wait-free and never contends:
//     one relaxed atomic bump in thread-local memory. A snapshot
//     merges all live shards plus the folded values of exited threads.
//   - The whole subsystem is gated on a single process-wide flag,
//     default off. Disabled, every record call is one relaxed load and
//     a predictable branch (~zero overhead; the throughput bench pins
//     this). Handles still register their names while disabled, so a
//     snapshot always lists every metric the build knows about.
//
// Semantics per kind:
//   counter    monotonically increasing sum across threads
//   gauge      high-water mark (merge = max across threads)
//   histogram  log2-binned magnitudes: a value lands in bin
//              bit_width(value) (bin 0 holds zeros), plus exact
//              count/sum — enough for "how big were the batches /
//              how long were the stalls" without per-value storage
//
// docs/OBSERVABILITY.md lists every metric the pipeline emits and the
// JSON schema of the snapshot.
#pragma once

#include <atomic>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace v6sonar::util::metrics {

enum class Kind : std::uint8_t { kCounter, kGauge, kHistogram };

/// Opaque handle: a slot offset into every thread's shard.
struct MetricId {
  std::uint32_t slot = UINT32_MAX;
  Kind kind = Kind::kCounter;
};

namespace detail {
/// The process-wide recording switch. Inline, so every gate compiles to
/// one relaxed load with no call (FlatMap probes check it per lookup).
inline std::atomic<bool> recording{false};
}  // namespace detail

/// Whether recording is on. One relaxed atomic load.
[[nodiscard]] inline bool enabled() noexcept {
  return detail::recording.load(std::memory_order_relaxed);
}
/// Turn recording on/off (process-wide). Registration and snapshots
/// work regardless; only record calls are gated.
void enable(bool on) noexcept;

/// Register (or look up) a metric. Idempotent per (name, kind);
/// re-registering a name with a different kind throws. Never call on
/// a per-record path — this takes the registry lock.
MetricId register_metric(std::string_view name, Kind kind);

/// Raw record calls (unchecked: caller gates on enabled()).
void add(MetricId id, std::uint64_t delta) noexcept;
void gauge_max(MetricId id, std::uint64_t value) noexcept;
void observe(MetricId id, std::uint64_t value) noexcept;

/// Cached-handle front ends: construct once (function-local static at
/// the use site), record freely. Each record call is gated on
/// enabled() internally.
class Counter {
 public:
  explicit Counter(std::string_view name) : id_(register_metric(name, Kind::kCounter)) {}
  void add(std::uint64_t delta = 1) const noexcept {
    if (enabled() && delta) metrics::add(id_, delta);
  }

 private:
  MetricId id_;
};

class Gauge {
 public:
  explicit Gauge(std::string_view name) : id_(register_metric(name, Kind::kGauge)) {}
  /// Raise the high-water mark to `value` if it is higher.
  void note(std::uint64_t value) const noexcept {
    if (enabled()) gauge_max(id_, value);
  }

 private:
  MetricId id_;
};

class Histogram {
 public:
  explicit Histogram(std::string_view name) : id_(register_metric(name, Kind::kHistogram)) {}
  void observe(std::uint64_t value) const noexcept {
    if (enabled()) metrics::observe(id_, value);
  }

 private:
  MetricId id_;
};

/// Merged histogram state: exact count and sum, plus 65 log2 bins
/// (bin i counts values with bit_width(value) == i; bin 0 is zeros).
struct HistogramData {
  std::uint64_t count = 0;
  std::uint64_t sum = 0;
  std::vector<std::pair<int, std::uint64_t>> bins;  ///< (bin, count), nonzero only
};

/// Point-in-time merge of all shards, sorted by name within each kind.
struct MetricsSnapshot {
  std::vector<std::pair<std::string, std::uint64_t>> counters;
  std::vector<std::pair<std::string, std::uint64_t>> gauges;
  std::vector<std::pair<std::string, HistogramData>> histograms;

  /// Lookup helpers (tests, bench reporting). nullopt if unregistered.
  [[nodiscard]] std::optional<std::uint64_t> counter(std::string_view name) const;
  [[nodiscard]] std::optional<std::uint64_t> gauge(std::string_view name) const;
  [[nodiscard]] std::optional<HistogramData> histogram(std::string_view name) const;
  /// Sum of every counter whose name starts with `prefix`.
  [[nodiscard]] std::uint64_t counter_sum(std::string_view prefix) const;
  /// Max over every gauge whose name starts with `prefix` (0 if none).
  [[nodiscard]] std::uint64_t gauge_max_of(std::string_view prefix) const;

  /// Serialize:
  ///   {"counters": {name: value, ...},
  ///    "gauges": {name: value, ...},
  ///    "histograms": {name: {"count": c, "sum": s,
  ///                          "bins": [[bin, count], ...]}, ...}}
  [[nodiscard]] std::string to_json() const;
};

/// Merge every thread's shard (and exited threads' folded values).
/// Safe to call concurrently with recording; the result is a
/// consistent-enough point-in-time view (each slot read atomically).
[[nodiscard]] MetricsSnapshot snapshot();

/// Zero every registered metric in every shard. For test isolation and
/// bench inter-run resets only — concurrent recorders may lose updates
/// that race with the wipe.
void reset() noexcept;

}  // namespace v6sonar::util::metrics
