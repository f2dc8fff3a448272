// Model-based property test: the streaming ScanDetector must agree
// exactly with a trivially-correct batch reference implementation on
// random traffic, across aggregation lengths, thresholds, and
// timeouts.
#include <gtest/gtest.h>

#include <algorithm>

#include "core/detector.hpp"
#include "detector_model.hpp"
#include "util/rng.hpp"

namespace v6sonar::core {
namespace {

using net::Ipv6Address;
using sim::LogRecord;
using sim::TimeUs;
using testing::reference;

std::vector<LogRecord> random_traffic(std::uint64_t seed, std::size_t n) {
  util::Xoshiro256 rng(seed);
  std::vector<LogRecord> out;
  out.reserve(n);
  TimeUs t = 0;
  for (std::size_t i = 0; i < n; ++i) {
    LogRecord r;
    // Bursty clock: mostly small steps, occasional > timeout jumps.
    t += rng.chance(0.02) ? 4'000'000'000LL + static_cast<TimeUs>(rng.below(4'000'000'000ULL))
                          : static_cast<TimeUs>(rng.below(30'000'000));
    r.ts_us = t;
    // A handful of /48s, /64s and addresses so aggregation matters.
    const std::uint64_t hi =
        0x2A10'0001'0000'0000ULL | (rng.below(3) << 16) | rng.below(3);
    r.src = Ipv6Address{hi, rng.below(6)};
    r.dst = Ipv6Address{0x2600ULL << 48, rng.below(400)};
    r.dst_port = static_cast<std::uint16_t>(rng.below(5));
    r.dst_in_dns = rng.chance(0.5);
    out.push_back(r);
  }
  return out;
}

struct Params {
  std::uint64_t seed;
  int len;
  std::uint32_t min_dsts;
  TimeUs timeout;
};

class DetectorModel : public ::testing::TestWithParam<Params> {};

TEST_P(DetectorModel, StreamingMatchesBatchReference) {
  const auto [seed, len, min_dsts, timeout] = GetParam();
  const DetectorConfig cfg{
      .source_prefix_len = len, .min_destinations = min_dsts, .timeout_us = timeout};
  const auto traffic = random_traffic(seed, 6'000);

  std::vector<ScanEvent> got;
  ScanDetector det(cfg, [&](ScanEvent&& ev) { got.push_back(std::move(ev)); });
  for (const auto& r : traffic) det.feed(r);
  det.flush();
  std::sort(got.begin(), got.end(), [](const ScanEvent& a, const ScanEvent& b) {
    return std::tie(a.source, a.first_us) < std::tie(b.source, b.first_us);
  });

  const auto want = reference(traffic, cfg);
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].source, want[i].source) << i;
    EXPECT_EQ(got[i].first_us, want[i].first) << i;
    EXPECT_EQ(got[i].last_us, want[i].last) << i;
    EXPECT_EQ(got[i].packets, want[i].packets) << i;
    EXPECT_EQ(got[i].distinct_dsts, want[i].dsts.size()) << i;
    ASSERT_EQ(got[i].port_packets.size(), want[i].ports.size()) << i;
    for (const auto& [port, count] : got[i].port_packets)
      EXPECT_EQ(want[i].ports.at(port), count) << i << " port " << port;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, DetectorModel,
    ::testing::Values(Params{1, 128, 50, 3'600'000'000LL}, Params{2, 64, 50, 3'600'000'000LL},
                      Params{3, 48, 50, 3'600'000'000LL}, Params{4, 64, 100, 3'600'000'000LL},
                      Params{5, 64, 5, 3'600'000'000LL}, Params{6, 64, 50, 900'000'000LL},
                      Params{7, 64, 50, 7'200'000'000LL}, Params{8, 32, 50, 1'800'000'000LL},
                      Params{9, 0, 50, 3'600'000'000LL}));

}  // namespace
}  // namespace v6sonar::core
