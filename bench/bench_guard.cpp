// bench_guard — the in-run performance gate (tools/check.sh bench-guard).
//
// Each check times a slow and a fast variant of one workload in this
// process, in alternation (slow, fast, slow, fast, ...), and takes the
// median over the rounds of slow/fast. Both passes of a round see the
// same host at the same moment, so the ratio needs no recorded
// baseline. The process exits 1 if a ratio falls below its floor or
// the two variants disagree on the events they find.
//
//   batch    per-record feed()        vs feed_batch(), one /64 detector
//   shards   1-shard pipeline         vs 3 shards (gated on >= 4 hardware threads)
//   summary  full ladder              vs summary-only ladder (/128 /64 /48 /32)
//   anchor   batch reference model    vs feed_batch(): the model is code no
//            detector optimisation touches, so a uniform detector
//            slowdown fails here even though it cancels out of the
//            other three ratios.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <functional>
#include <memory>
#include <span>
#include <thread>
#include <vector>

#include "core/detector.hpp"
#include "core/parallel_pipeline.hpp"
#include "detector_model.hpp"
#include "util/rng.hpp"
#include "util/timebase.hpp"

namespace {

using namespace v6sonar;

// Over 40 runs of two builds of one detector, alternated, on a 4-vCPU
// Intel Xeon VM (GCC 12.2, Release, 31 rounds) the ratios read: batch
// 1.31-1.67, shards 2.41-3.04, summary 1.63-1.73, anchor 3.83-4.62
// (5th percentile 3.88, median 4.25). Each floor sits below the lowest
// of them and above what the ratio reads once its optimisation is
// gone: batch, shards and summary ~1.0; anchor 3.29-3.55 with the
// detector apply path ~20 % slower. At 15 rounds one unchanged run
// read an anchor of 3.73; 31 rounds steady the median.
constexpr double kBatchFloor = 1.25;
constexpr double kShardsFloor = 1.30;
constexpr double kSummaryFloor = 1.35;
constexpr double kAnchorFloor = 3.75;

constexpr int kRounds = 31;
constexpr std::size_t kBatch = 4'096;

/// Synthetic traffic: `sources` /64s (four addresses each), ~10 ms
/// mean gap, destinations drawn from `dsts` addresses and `ports`
/// ports.
std::vector<sim::LogRecord> traffic(std::size_t records, std::size_t sources,
                                    std::uint64_t dsts, std::uint64_t ports) {
  util::Xoshiro256 rng(9);
  std::vector<sim::LogRecord> out(records);
  sim::TimeUs t = sim::us_from_seconds(util::kWindowStart);
  for (auto& r : out) {
    t += 1 + static_cast<sim::TimeUs>(rng.below(20'000));
    r.ts_us = t;
    r.src = net::Ipv6Address{0x2A10'0000'0000'0000ULL | rng.below(sources) << 16, rng.below(4)};
    r.dst = net::Ipv6Address{0x2600ULL << 48, rng.below(dsts)};
    r.dst_port = static_cast<std::uint16_t>(rng.below(ports));
    r.src_asn = 1;
  }
  return out;
}

template <typename Feeder>
void feed_in_batches(std::span<const sim::LogRecord> all, Feeder& f) {
  for (std::size_t i = 0; i < all.size(); i += kBatch)
    f.feed_batch(all.subspan(i, std::min(kBatch, all.size() - i)));
}

/// Events found by a detector ladder fed in batches.
std::uint64_t run_ladder(std::span<const sim::LogRecord> all, const std::vector<int>& lens,
                         bool summary_only) {
  std::uint64_t events = 0;
  std::vector<std::unique_ptr<core::ScanDetector>> ladder;
  for (const int len : lens)
    ladder.push_back(std::make_unique<core::ScanDetector>(
        core::DetectorConfig{.source_prefix_len = len, .summary_only = summary_only},
        [&](core::ScanEvent&&) { ++events; }));
  for (auto& d : ladder) feed_in_batches(all, *d);
  for (auto& d : ladder) d->flush();
  return events;
}

std::uint64_t run_per_record(std::span<const sim::LogRecord> all) {
  std::uint64_t events = 0;
  core::ScanDetector det({.source_prefix_len = 64}, [&](core::ScanEvent&&) { ++events; });
  for (const auto& r : all) det.feed(r);
  det.flush();
  return events;
}

class CountingSink final : public core::EventSink {
 public:
  void on_event(core::ScanEvent&&) override { ++events; }
  std::uint64_t events = 0;
};

std::uint64_t run_pipeline(std::span<const sim::LogRecord> all, int shards) {
  std::vector<CountingSink> sinks(static_cast<std::size_t>(shards));
  core::ParallelScanPipeline pipe({.source_prefix_len = 64}, {.threads = shards},
                                  [&](std::size_t shard) -> core::EventSink& {
                                    return sinks[shard];
                                  });
  feed_in_batches(all, pipe);
  pipe.flush();
  std::uint64_t events = 0;
  for (const auto& s : sinks) events += s.events;
  return events;
}

/// One gated pair: the median over kRounds alternating rounds of
/// slow/fast must reach `floor`, and both sides must report the same
/// event count. The median of per-round ratios, not the ratio of each
/// side's fastest pass: a quiet spell on the shared host speeds up the
/// memory-bound side of a pair more than the other, and a minimum
/// keeps exactly that outlier.
bool gate(const char* name, double floor, const std::function<std::uint64_t()>& slow,
          const std::function<std::uint64_t()>& fast) {
  double best[2] = {1e300, 1e300};
  std::uint64_t events[2] = {0, 0};
  std::vector<double> ratios;
  slow();  // warm-up: first-touch page faults and allocator growth
  fast();
  for (int round = 0; round < kRounds; ++round) {
    double s[2];
    for (int side = 0; side < 2; ++side) {
      const auto t0 = std::chrono::steady_clock::now();
      events[side] = side == 0 ? slow() : fast();
      s[side] = std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
      best[side] = std::min(best[side], s[side]);
    }
    ratios.push_back(s[0] / s[1]);
  }
  std::nth_element(ratios.begin(), ratios.begin() + kRounds / 2, ratios.end());
  const double ratio = ratios[kRounds / 2];
  const bool ok = ratio >= floor && events[0] == events[1];
  std::printf("%-8s %8.3f s %8.3f s  ratio %5.2f  floor %4.2f  events %llu/%llu  %s\n", name,
              best[0], best[1], ratio, floor, static_cast<unsigned long long>(events[0]),
              static_cast<unsigned long long>(events[1]), ok ? "ok" : "FAIL");
  return ok;
}

}  // namespace

int main() {
  // Megascanner-shaped traffic (a few hundred /64s, each sweeping a
  // small range on a few ports: the class that dominates the paper's
  // packet counts, and the case feed_batch() groups), and two
  // many-source streams for the shards and the ladder.
  const auto heavy = traffic(1'000'000, 300, 1'024, 4);
  const auto many = traffic(500'000, 5'000, 1 << 18, 1'000);
  const auto few = traffic(100'000, 2'000, 1 << 18, 1'000);
  const std::vector<sim::LogRecord> model_input(heavy.begin(), heavy.begin() + 500'000);

  std::printf("%-8s %10s %10s  (fastest passes; ratio: median of %d rounds)\n", "check",
              "slow", "fast", kRounds);
  const core::DetectorConfig model_cfg{.source_prefix_len = 64};
  bool ok = gate("anchor", kAnchorFloor,
                 [&] { return core::testing::reference(model_input, model_cfg).size(); },
                 [&] { return run_ladder(model_input, {64}, false); });
  ok &= gate("batch", kBatchFloor, [&] { return run_per_record(heavy); },
             [&] { return run_ladder(heavy, {64}, false); });

  const unsigned hw = std::thread::hardware_concurrency();
  if (hw >= 4)
    ok &= gate("shards", kShardsFloor, [&] { return run_pipeline(many, 1); },
               [&] { return run_pipeline(many, 3); });
  else
    std::printf("shards   not gated: %u hardware threads (needs 4)\n", hw);

  const std::vector<int> ladder = {128, 64, 48, 32};
  ok &= gate("summary", kSummaryFloor, [&] { return run_ladder(few, ladder, false); },
             [&] { return run_ladder(few, ladder, true); });

  std::printf("bench_guard: %s\n", ok ? "passed" : "FAILED");
  return ok ? 0 : 1;
}
