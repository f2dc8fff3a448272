// Scaling — sharded parallel detection pipeline vs the serial
// detector on identical synthetic traffic, fed record-at-a-time and
// through the batched feed path. Prints a speedup table (the
// acceptance target is >=3x at 8 threads), writes the serial rate and
// per-thread-count speedups to BENCH_pipeline.json (section
// "parallel_pipeline_bulk"), then runs the google-benchmark kernels
// for items/sec detail.

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "common.hpp"
#include "core/detector.hpp"
#include "core/parallel_pipeline.hpp"
#include "util/metrics.hpp"
#include "util/rng.hpp"
#include "util/timebase.hpp"

namespace {

using namespace v6sonar;

std::vector<sim::LogRecord> synthetic_traffic(std::size_t records, std::size_t sources) {
  util::Xoshiro256 rng(9);
  std::vector<sim::LogRecord> out;
  out.reserve(records);
  sim::TimeUs t = sim::us_from_seconds(util::kWindowStart);
  for (std::size_t i = 0; i < records; ++i) {
    sim::LogRecord r;
    // ~10ms mean gap keeps per-source gaps well under the 1h timeout,
    // so sources accumulate enough destinations to emit real events.
    t += 1 + static_cast<sim::TimeUs>(rng.below(20'000));
    r.ts_us = t;
    r.src = net::Ipv6Address{0x2A10'0000'0000'0000ULL | rng.below(sources) << 16, rng.below(4)};
    r.dst = net::Ipv6Address{0x2600ULL << 48, rng.below(1 << 18)};
    r.dst_port = static_cast<std::uint16_t>(rng.below(1'000));
    r.src_asn = 1;
    out.push_back(r);
  }
  return out;
}

std::uint64_t run_serial(const std::vector<sim::LogRecord>& traffic) {
  std::uint64_t events = 0;
  core::ScanDetector det({.source_prefix_len = 64}, [&](core::ScanEvent&&) { ++events; });
  for (const auto& r : traffic) det.feed(r);
  det.flush();
  return events;
}

/// Per-shard sink: counts its shard's events on the worker thread, no
/// rendezvous until the sum at the end — the cheapest possible
/// stand-in for a per-shard analyzer chain.
class CountingSink final : public core::EventSink {
 public:
  void on_event(core::ScanEvent&&) override { ++events_; }
  [[nodiscard]] std::uint64_t events() const noexcept { return events_; }

 private:
  std::uint64_t events_ = 0;
};

std::uint64_t run_parallel(const std::vector<sim::LogRecord>& traffic, int threads,
                           std::size_t batch = 0) {
  std::vector<std::unique_ptr<CountingSink>> sinks;
  core::ParallelScanPipeline pipe(
      {.source_prefix_len = 64}, {.threads = threads},
      core::ParallelScanPipeline::ShardSinkFactory([&](std::size_t) -> core::EventSink& {
        sinks.push_back(std::make_unique<CountingSink>());
        return *sinks.back();
      }));
  if (batch == 0) {
    for (const auto& r : traffic) pipe.feed(r);
  } else {
    const std::span<const sim::LogRecord> all(traffic);
    for (std::size_t i = 0; i < all.size(); i += batch)
      pipe.feed_batch(all.subspan(i, std::min(batch, all.size() - i)));
  }
  pipe.flush();
  std::uint64_t events = 0;
  for (const auto& s : sinks) events += s->events();
  return events;
}

/// Record count for the speedup table: 4M by default, overridable via
/// V6SONAR_PIPELINE_RECORDS for CI smoke runs (tools/check.sh perf)
/// that only need the JSON fields to materialize, not a stable
/// measurement.
std::size_t table_records() {
  if (const char* env = std::getenv("V6SONAR_PIPELINE_RECORDS")) {
    const std::size_t n = std::strtoull(env, nullptr, 10);
    if (n > 0) return n;
  }
  return 4'000'000;
}

/// Wall-clock speedup table over one large pass; the acceptance gate
/// for the sharded pipeline is the 8-thread row. Each thread count
/// runs both record-at-a-time feed() and batched feed_batch() (4096
/// records per call, per-shard run publication). Results land in the
/// "parallel_pipeline_bulk" JSON section; the pre-bulk-consumption
/// numbers stay behind in "parallel_pipeline" as the baseline row.
void print_speedup_table() {
  constexpr std::size_t kBatch = 4'096;
  const auto traffic = synthetic_traffic(table_records(), 20'000);
  const auto time = [](auto&& fn) {
    const auto t0 = std::chrono::steady_clock::now();
    const std::uint64_t events = fn();
    const auto t1 = std::chrono::steady_clock::now();
    return std::pair{std::chrono::duration<double>(t1 - t0).count(), events};
  };

  const auto [serial_s, serial_events] = time([&] { return run_serial(traffic); });
  const double serial_rps = static_cast<double>(traffic.size()) / serial_s;
  std::printf("parallel pipeline scaling — %zu records, 20k /64 sources\n", traffic.size());
  std::printf("  %-20s %10s %12s %9s  %s\n", "config", "seconds", "records/s", "speedup",
              "events");
  std::printf("  %-20s %10.3f %12.0f %9s  %llu\n", "serial", serial_s, serial_rps, "1.00x",
              static_cast<unsigned long long>(serial_events));

  std::ostringstream json;
  json << "{\"records\": " << traffic.size() << ", \"serial_rps\": "
       << static_cast<std::uint64_t>(serial_rps);
  for (const int threads : {1, 2, 3, 8}) {
    for (const bool batched : {false, true}) {
      const auto [par_s, par_events] =
          time([&] { return run_parallel(traffic, threads, batched ? kBatch : 0); });
      char label[32];
      std::snprintf(label, sizeof label, "%d threads%s", threads, batched ? " batched" : "");
      std::printf("  %-20s %10.3f %12.0f %8.2fx  %llu%s\n", label, par_s,
                  static_cast<double>(traffic.size()) / par_s, serial_s / par_s,
                  static_cast<unsigned long long>(par_events),
                  par_events == serial_events ? "" : "  EVENT MISMATCH");
      char key[48];
      std::snprintf(key, sizeof key, ", \"speedup_%dt%s\": %.2f", threads,
                    batched ? "_batched" : "", serial_s / par_s);
      json << key;
    }
  }
  // One extra instrumented 8-thread batched pass (metrics stay off
  // during the timed ones): ring occupancy and producer-stall context
  // for the speedup rows — a scaling regression with a saturated
  // in-ring high-water reads very differently from one without.
  util::metrics::reset();
  util::metrics::enable(true);
  run_parallel(traffic, 8, kBatch);
  util::metrics::enable(false);
  const auto snap = util::metrics::snapshot();
  const std::uint64_t in_hw = snap.gauge_max_of("pipeline.shard");
  const std::uint64_t blocked = snap.counter("pipeline.in_ring.producer_blocked").value_or(0);
  const std::uint64_t parks = snap.counter("pipeline.in_ring.producer_parks").value_or(0);
  // Bulk-consumption telemetry: mean records per worker chunk pop —
  // how much batching actually survived the ring crossing during the
  // instrumented pass.
  const auto h = snap.histogram("pipeline.worker.batch_size");
  const double worker_batch_mean =
      h && h->count > 0 ? static_cast<double>(h->sum) / static_cast<double>(h->count) : 0.0;
  std::printf("  8t batched telemetry: ring occupancy hw %llu, producer blocked %llu, "
              "parks %llu\n",
              static_cast<unsigned long long>(in_hw),
              static_cast<unsigned long long>(blocked),
              static_cast<unsigned long long>(parks));
  std::printf("  8t bulk consumption: mean worker chunk %.1f records\n\n", worker_batch_mean);
  json << ", \"ring_occupancy_hw_8t\": " << in_hw << ", \"producer_blocked_8t\": " << blocked
       << ", \"producer_parks_8t\": " << parks;
  char bulk[64];
  std::snprintf(bulk, sizeof bulk, ", \"worker_batch_mean_8t\": %.1f", worker_batch_mean);
  json << bulk;

  json << "}";
  benchx::update_bench_json("BENCH_pipeline.json", "parallel_pipeline_bulk", json.str());
}

void BM_SerialDetector(benchmark::State& state) {
  const auto traffic = synthetic_traffic(1'000'000, 20'000);
  for (auto _ : state) benchmark::DoNotOptimize(run_serial(traffic));
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(traffic.size()));
}
BENCHMARK(BM_SerialDetector)->Unit(benchmark::kMillisecond);

void BM_ParallelPipeline(benchmark::State& state) {
  const auto traffic = synthetic_traffic(1'000'000, 20'000);
  const int threads = static_cast<int>(state.range(0));
  for (auto _ : state) benchmark::DoNotOptimize(run_parallel(traffic, threads));
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(traffic.size()));
}
BENCHMARK(BM_ParallelPipeline)->Arg(1)->Arg(2)->Arg(4)->Arg(8)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  print_speedup_table();
  // Smoke runs (V6SONAR_PIPELINE_RECORDS set) only need the speedup
  // table and its JSON section; skip the google-benchmark kernels.
  if (std::getenv("V6SONAR_PIPELINE_RECORDS")) return 0;
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
