// Tests for the streaming adaptive-attribution IDS (§5), on its one
// front end, ParallelIds, at one shard.
#include <gtest/gtest.h>

#include "core/parallel_pipeline.hpp"
#include "core/streaming_ids.hpp"

#include "util/rng.hpp"

namespace v6sonar::core {
namespace {

using net::Ipv6Address;
using net::Ipv6Prefix;
using sim::LogRecord;
using sim::TimeUs;

constexpr TimeUs kSec = 1'000'000;
constexpr TimeUs kHour = 3'600 * kSec;

LogRecord probe(TimeUs ts, const Ipv6Address& src, std::uint64_t dst_lo,
                std::uint32_t asn = 1) {
  LogRecord r;
  r.ts_us = ts;
  r.src = src;
  r.dst = Ipv6Address{0x2600ULL << 48, dst_lo};
  r.dst_port = 22;
  r.src_asn = asn;
  return r;
}

IdsConfig small_config() {
  IdsConfig cfg;
  cfg.min_destinations = 50;
  cfg.reattribution_period_us = 6 * kHour;
  return cfg;
}

constexpr ParallelConfig kOneShard{.threads = 1};

TEST(StreamingIds, RejectsBadConfig) {
  EXPECT_THROW(ParallelIds({}, kOneShard, nullptr), std::invalid_argument);
  IdsConfig cfg;
  cfg.reattribution_period_us = 0;
  EXPECT_THROW(ParallelIds(cfg, kOneShard, [](const IdsAlert&) {}), std::invalid_argument);
  cfg = IdsConfig{};
  cfg.adaptive.ladder = {48, 64};  // must run finest to coarsest
  EXPECT_THROW(ParallelIds(cfg, kOneShard, [](const IdsAlert&) {}), std::invalid_argument);
}

TEST(StreamingIds, SingleAddressActorAlertsOnceAtSlash128) {
  std::vector<IdsAlert> alerts;
  ParallelIds ids(small_config(), kOneShard, [&](const IdsAlert& a) { alerts.push_back(a); });

  const Ipv6Address scanner = Ipv6Address::parse_or_throw("2a10:1::15");
  TimeUs t = 0;
  // Three days of steady scanning, several reattribution passes.
  for (int i = 0; i < 3 * 86'400 / 30; ++i)
    ids.feed(probe(t += 30 * kSec, scanner, static_cast<std::uint64_t>(i % 5'000)));
  ids.flush();

  ASSERT_GE(alerts.size(), 1u);
  EXPECT_EQ(alerts[0].attribution.level, 128);
  EXPECT_EQ(alerts[0].attribution.source.to_string(), "2a10:1::15/128");
  EXPECT_TRUE(alerts[0].is_new);
  // Repeated passes over the same actor at the same level alert once.
  std::size_t for_actor = 0;
  for (const auto& a : alerts) for_actor += a.attribution.source.contains(scanner);
  EXPECT_EQ(for_actor, 1u);
}

TEST(StreamingIds, SpreadActorEscalatesWithEscalationAlert) {
  std::vector<IdsAlert> alerts;
  IdsConfig cfg = small_config();
  cfg.adaptive.absorb_ratio = 1.3;
  ParallelIds ids(cfg, kOneShard, [&](const IdsAlert& a) { alerts.push_back(a); });

  // AS#18 pattern: each burst from a fresh /48 under one /32; bursts
  // of 60 destinations (below the 50-dst bar only at... 60 >= 50, so
  // individual /48s qualify) plus lots of 30-dst bursts only visible
  // at /32.
  util::Xoshiro256 rng(7);
  TimeUs t = 0;
  for (int burst = 0; burst < 200; ++burst) {
    const std::uint64_t hi = 0x2A10'0012'0000'0000ULL | (rng.below(4'000) << 16) | rng.below(0x10000);
    const Ipv6Address src{hi, rng()};
    const std::uint64_t n = burst % 4 == 0 ? 60 : 30;
    for (std::uint64_t i = 0; i < n; ++i)
      ids.feed(probe(t += 20 * kSec, src, rng.below(100'000), 18));
  }
  ids.flush();

  // The final blocklist attributes the whole /32.
  bool has32 = false;
  for (const auto& a : ids.blocklist())
    if (a.level == 32 && a.source.to_string() == "2a10:12::/32") has32 = true;
  EXPECT_TRUE(has32);

  // And the /32 entry was reported as an escalation if finer-level
  // alerts preceded it (is_new == false), or as new otherwise.
  bool saw32_alert = false;
  bool earlier_finer = false;
  for (const auto& a : alerts) {
    if (a.attribution.level == 32) {
      saw32_alert = true;
      if (earlier_finer) {
        EXPECT_FALSE(a.is_new);
      }
    } else if (!saw32_alert) {
      earlier_finer = true;
    }
  }
  EXPECT_TRUE(saw32_alert);
}

TEST(StreamingIds, QuietTrafficProducesNoAlerts) {
  std::vector<IdsAlert> alerts;
  ParallelIds ids(small_config(), kOneShard, [&](const IdsAlert& a) { alerts.push_back(a); });
  util::Xoshiro256 rng(3);
  TimeUs t = 0;
  // 500 sources, 3 destinations each: nobody crosses the bar.
  for (int i = 0; i < 500; ++i) {
    const Ipv6Address src{rng(), rng()};
    for (int j = 0; j < 3; ++j) ids.feed(probe(t += kSec, src, rng.below(10)));
  }
  ids.flush();
  EXPECT_TRUE(alerts.empty());
  EXPECT_TRUE(ids.blocklist().empty());
}

TEST(StreamingIds, AlertCarriesTimestampAndPackets) {
  std::vector<IdsAlert> alerts;
  ParallelIds ids(small_config(), kOneShard, [&](const IdsAlert& a) { alerts.push_back(a); });
  const Ipv6Address scanner = Ipv6Address::parse_or_throw("2a10:2::9");
  TimeUs t = kHour;
  for (int i = 0; i < 200; ++i) ids.feed(probe(t += 10 * kSec, scanner, static_cast<std::uint64_t>(i)));
  ids.flush();
  ASSERT_EQ(alerts.size(), 1u);
  EXPECT_GT(alerts[0].attribution.packets, 100u);
  EXPECT_GT(alerts[0].at_us, kHour);
}

}  // namespace
}  // namespace v6sonar::core
