#include "util/metrics.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <unordered_map>

namespace v6sonar::util::metrics {

namespace {

/// Slots per shard. Fixed so a shard never reallocates while another
/// thread snapshots it: registering past the cap throws (the pipeline
/// registers a few hundred slots; 8192 leaves 10x headroom and costs
/// 64 KiB per recording thread, allocated on first use).
constexpr std::size_t kMaxSlots = 8192;

/// Histogram slot layout: [count, sum, bin0..bin64].
constexpr std::size_t kHistSlots = 2 + 65;

struct Descriptor {
  std::string name;
  Kind kind = Kind::kCounter;
  std::uint32_t slot = 0;  ///< first slot; counters/gauges take 1, histograms kHistSlots
};

struct Shard {
  Shard() : slots(new std::atomic<std::uint64_t>[kMaxSlots]) {
    for (std::size_t i = 0; i < kMaxSlots; ++i)
      slots[i].store(0, std::memory_order_relaxed);
  }
  std::unique_ptr<std::atomic<std::uint64_t>[]> slots;
};

struct Registry {
  std::mutex mu;
  std::vector<Descriptor> descriptors;
  std::unordered_map<std::string, std::uint32_t> by_name;  ///< name -> descriptor index
  std::uint32_t next_slot = 0;
  std::vector<Shard*> live_shards;
  /// Values folded out of exited threads' shards, by slot. Gauges fold
  /// with max, everything else with +.
  std::vector<std::uint64_t> retired;

  Registry() : retired(kMaxSlots, 0) {}
};

/// Leaked singleton: recording threads may outlive static destruction
/// order, so the registry must never die before its last shard.
Registry& reg() {
  static Registry* r = new Registry;
  return *r;
}

/// Fold one shard into `retired` respecting per-kind merge semantics.
/// Caller holds the registry lock.
void fold_locked(Registry& r, const Shard& sh) {
  for (const Descriptor& d : r.descriptors) {
    if (d.kind == Kind::kGauge) {
      const std::uint64_t v = sh.slots[d.slot].load(std::memory_order_relaxed);
      r.retired[d.slot] = std::max(r.retired[d.slot], v);
    } else {
      const std::uint32_t n = d.kind == Kind::kHistogram ? kHistSlots : 1;
      for (std::uint32_t i = 0; i < n; ++i)
        r.retired[d.slot + i] += sh.slots[d.slot + i].load(std::memory_order_relaxed);
    }
  }
}

/// The calling thread's shard, registered on first use and folded into
/// the retired accumulator when the thread exits.
Shard& local_shard() {
  struct Handle {
    Shard shard;
    Handle() {
      Registry& r = reg();
      const std::lock_guard<std::mutex> lock(r.mu);
      r.live_shards.push_back(&shard);
    }
    ~Handle() {
      Registry& r = reg();
      const std::lock_guard<std::mutex> lock(r.mu);
      fold_locked(r, shard);
      std::erase(r.live_shards, &shard);
    }
  };
  thread_local Handle h;
  return h.shard;
}

void append_json_entry(std::string& out, bool& first, const std::string& name) {
  if (!first) out += ", ";
  first = false;
  out += '"';
  for (const char c : name) {  // metric names are plain ASCII; escape defensively
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  out += "\": ";
}

}  // namespace

void enable(bool on) noexcept { detail::recording.store(on, std::memory_order_relaxed); }

MetricId register_metric(std::string_view name, Kind kind) {
  Registry& r = reg();
  const std::lock_guard<std::mutex> lock(r.mu);
  const auto it = r.by_name.find(std::string(name));
  if (it != r.by_name.end()) {
    const Descriptor& d = r.descriptors[it->second];
    if (d.kind != kind)
      throw std::logic_error("metrics: '" + std::string(name) +
                             "' re-registered with a different kind");
    return MetricId{d.slot, d.kind};
  }
  const std::uint32_t width = kind == Kind::kHistogram ? kHistSlots : 1;
  if (r.next_slot + width > kMaxSlots)
    throw std::logic_error("metrics: slot space exhausted (kMaxSlots)");
  Descriptor d{std::string(name), kind, r.next_slot};
  r.next_slot += width;
  r.by_name.emplace(d.name, static_cast<std::uint32_t>(r.descriptors.size()));
  r.descriptors.push_back(std::move(d));
  return MetricId{r.descriptors.back().slot, kind};
}

void add(MetricId id, std::uint64_t delta) noexcept {
  local_shard().slots[id.slot].fetch_add(delta, std::memory_order_relaxed);
}

void gauge_max(MetricId id, std::uint64_t value) noexcept {
  std::atomic<std::uint64_t>& slot = local_shard().slots[id.slot];
  // Single-writer slot (thread-local): load-compare-store suffices; a
  // racing reset() can at worst drop this one high-water update.
  if (value > slot.load(std::memory_order_relaxed))
    slot.store(value, std::memory_order_relaxed);
}

void observe(MetricId id, std::uint64_t value) noexcept {
  Shard& sh = local_shard();
  sh.slots[id.slot].fetch_add(1, std::memory_order_relaxed);                      // count
  sh.slots[id.slot + 1].fetch_add(value, std::memory_order_relaxed);              // sum
  sh.slots[id.slot + 2 + std::bit_width(value)].fetch_add(1, std::memory_order_relaxed);
}

MetricsSnapshot snapshot() {
  Registry& r = reg();
  const std::lock_guard<std::mutex> lock(r.mu);

  // Merge retired + live per slot, on demand per descriptor.
  const auto merged = [&](std::uint32_t slot, Kind kind) {
    std::uint64_t v = r.retired[slot];
    for (const Shard* sh : r.live_shards) {
      const std::uint64_t s = sh->slots[slot].load(std::memory_order_relaxed);
      v = kind == Kind::kGauge ? std::max(v, s) : v + s;
    }
    return v;
  };

  MetricsSnapshot snap;
  for (const Descriptor& d : r.descriptors) {
    switch (d.kind) {
      case Kind::kCounter:
        snap.counters.emplace_back(d.name, merged(d.slot, d.kind));
        break;
      case Kind::kGauge:
        snap.gauges.emplace_back(d.name, merged(d.slot, d.kind));
        break;
      case Kind::kHistogram: {
        HistogramData h;
        h.count = merged(d.slot, Kind::kCounter);
        h.sum = merged(d.slot + 1, Kind::kCounter);
        for (int b = 0; b <= 64; ++b) {
          const std::uint64_t n = merged(d.slot + 2 + static_cast<std::uint32_t>(b),
                                         Kind::kCounter);
          if (n) h.bins.emplace_back(b, n);
        }
        snap.histograms.emplace_back(d.name, std::move(h));
        break;
      }
    }
  }
  const auto by_name = [](const auto& a, const auto& b) { return a.first < b.first; };
  std::sort(snap.counters.begin(), snap.counters.end(), by_name);
  std::sort(snap.gauges.begin(), snap.gauges.end(), by_name);
  std::sort(snap.histograms.begin(), snap.histograms.end(), by_name);
  return snap;
}

void reset() noexcept {
  Registry& r = reg();
  const std::lock_guard<std::mutex> lock(r.mu);
  std::fill(r.retired.begin(), r.retired.end(), 0);
  for (Shard* sh : r.live_shards)
    for (std::size_t i = 0; i < kMaxSlots; ++i)
      sh->slots[i].store(0, std::memory_order_relaxed);
}

std::optional<std::uint64_t> MetricsSnapshot::counter(std::string_view name) const {
  for (const auto& [n, v] : counters)
    if (n == name) return v;
  return std::nullopt;
}

std::optional<std::uint64_t> MetricsSnapshot::gauge(std::string_view name) const {
  for (const auto& [n, v] : gauges)
    if (n == name) return v;
  return std::nullopt;
}

std::optional<HistogramData> MetricsSnapshot::histogram(std::string_view name) const {
  for (const auto& [n, v] : histograms)
    if (n == name) return v;
  return std::nullopt;
}

std::uint64_t MetricsSnapshot::counter_sum(std::string_view prefix) const {
  std::uint64_t sum = 0;
  for (const auto& [n, v] : counters)
    if (n.size() >= prefix.size() && std::string_view(n).substr(0, prefix.size()) == prefix)
      sum += v;
  return sum;
}

std::uint64_t MetricsSnapshot::gauge_max_of(std::string_view prefix) const {
  std::uint64_t m = 0;
  for (const auto& [n, v] : gauges)
    if (n.size() >= prefix.size() && std::string_view(n).substr(0, prefix.size()) == prefix)
      m = std::max(m, v);
  return m;
}

std::string MetricsSnapshot::to_json() const {
  std::string out = "{\"counters\": {";
  bool first = true;
  for (const auto& [name, v] : counters) {
    append_json_entry(out, first, name);
    out += std::to_string(v);
  }
  out += "}, \"gauges\": {";
  first = true;
  for (const auto& [name, v] : gauges) {
    append_json_entry(out, first, name);
    out += std::to_string(v);
  }
  out += "}, \"histograms\": {";
  first = true;
  for (const auto& [name, h] : histograms) {
    append_json_entry(out, first, name);
    out += "{\"count\": " + std::to_string(h.count) + ", \"sum\": " + std::to_string(h.sum) +
           ", \"bins\": [";
    bool bfirst = true;
    for (const auto& [bin, n] : h.bins) {
      if (!bfirst) out += ", ";
      bfirst = false;
      // Built with += rather than operator+ chains: GCC 12's
      // -Wrestrict false-fires on `const char* + std::string&&`.
      out += '[';
      out += std::to_string(bin);
      out += ", ";
      out += std::to_string(n);
      out += ']';
    }
    out += "]}";
  }
  out += "}}";
  return out;
}

}  // namespace v6sonar::util::metrics
