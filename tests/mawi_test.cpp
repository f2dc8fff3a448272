// Tests for the MAWI transit-link simulation and its pcap round trip.
#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
#include <set>

#include "core/fh_detector.hpp"
#include "wire/packet.hpp"
#include "wire/pcapng.hpp"
#include "mawi/world.hpp"
#include "scanner/hitlist.hpp"
#include "util/stats.hpp"
#include "util/timebase.hpp"

namespace v6sonar::mawi {
namespace {

using util::CivilDate;

class MawiTest : public ::testing::Test {
 protected:
  MawiTest() : hitlist_({.seed = 3, .external_addresses = 5'000}, {}), world_(make_world()) {}

  MawiWorld make_world() {
    MawiConfig cfg;
    cfg.as1_pps = 30;  // lighter than default for test speed
    cfg.background_flows = 60;
    cfg.small_probers_per_day = 40;
    cfg.jul6_pps = 300;
    cfg.dec24_pps = 800;
    return MawiWorld(cfg, registry_, hitlist_);
  }

  sim::AsRegistry registry_;
  scanner::Hitlist hitlist_;
  MawiWorld world_;
};

TEST_F(MawiTest, DayIndexMapsCalendar) {
  EXPECT_EQ(day_index(CivilDate{2021, 1, 1}), 0);
  EXPECT_EQ(day_index(CivilDate{2021, 1, 2}), 1);
  EXPECT_EQ(day_index(CivilDate{2021, 7, 6}), 186);
  EXPECT_EQ(day_index(CivilDate{2021, 12, 24}), 357);
  EXPECT_EQ(world_.days(), 439);  // the paper's 439 measurement days
}

TEST_F(MawiTest, WindowsAreSortedAndBounded) {
  const auto recs = world_.generate_day(10);
  ASSERT_FALSE(recs.empty());
  const sim::TimeUs w0 =
      sim::us_from_seconds(util::kWindowStart + 10 * util::kSecondsPerDay + 5 * 3'600);
  const sim::TimeUs w1 = w0 + 15LL * 60 * sim::kUsPerSecond;
  sim::TimeUs prev = 0;
  for (const auto& r : recs) {
    EXPECT_GE(r.ts_us, w0);
    EXPECT_LT(r.ts_us, w1);
    EXPECT_GE(r.ts_us, prev);
    prev = r.ts_us;
  }
}

TEST_F(MawiTest, DeterministicPerDay) {
  const auto a = world_.generate_day(42);
  const auto b = world_.generate_day(42);
  EXPECT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); i += 101) EXPECT_EQ(a[i], b[i]);
  EXPECT_NE(world_.generate_day(43).size(), 0u);
}

TEST_F(MawiTest, DominantScannerPresentEveryDay) {
  for (int d : {0, 100, 250, 400}) {
    const auto recs = world_.generate_day(d);
    std::uint64_t as1 = 0;
    for (const auto& r : recs) as1 += world_.as1_source64().contains(r.src);
    EXPECT_GT(as1, 100u) << "day " << d;
  }
}

TEST_F(MawiTest, As1SwitchesPortsInMay) {
  std::set<std::uint16_t> before, after;
  for (const auto& r : world_.generate_day(day_index(CivilDate{2021, 3, 1})))
    if (world_.as1_source64().contains(r.src)) before.insert(r.dst_port);
  for (const auto& r : world_.generate_day(day_index(CivilDate{2021, 8, 1})))
    if (world_.as1_source64().contains(r.src)) after.insert(r.dst_port);
  EXPECT_GT(before.size(), 100u);  // hundreds of ports early
  EXPECT_EQ(after.size(), 6u);     // {22, 80, 443, 3389, 8080, 8443}
  EXPECT_TRUE(after.contains(80));
  EXPECT_TRUE(after.contains(443));
}

TEST_F(MawiTest, HitlistSeedingDayHasHighOverlap) {
  std::vector<net::Ipv6Address> seed_day, normal_day;
  for (const auto& r : world_.generate_day(day_index(CivilDate{2021, 5, 27})))
    if (world_.as1_source64().contains(r.src)) seed_day.push_back(r.dst);
  for (const auto& r : world_.generate_day(day_index(CivilDate{2021, 5, 28})))
    if (world_.as1_source64().contains(r.src)) normal_day.push_back(r.dst);
  EXPECT_GT(hitlist_.overlap(seed_day), 0.99);   // the paper's 99.2%
  EXPECT_LT(hitlist_.overlap(normal_day), 0.01);  // near-zero otherwise
}

TEST_F(MawiTest, PeakDaysDwarfNormalDays) {
  const auto normal = world_.generate_day(200).size();
  const auto jul6 = world_.generate_day(day_index(CivilDate{2021, 7, 6})).size();
  const auto dec24 = world_.generate_day(day_index(CivilDate{2021, 12, 24})).size();
  EXPECT_GT(jul6, normal * 5);
  EXPECT_GT(dec24, jul6);
}

TEST_F(MawiTest, Jul6SourcesShareOneSlash124) {
  std::set<net::Ipv6Address> srcs;
  for (const auto& r : world_.generate_day(day_index(CivilDate{2021, 7, 6})))
    if (r.proto == wire::IpProto::kIcmpv6 && world_.jul6_source64().contains(r.src))
      srcs.insert(r.src);
  EXPECT_EQ(srcs.size(), 7u);
  const auto first = *srcs.begin();
  for (const auto& s : srcs) EXPECT_GE(s.common_prefix_len(first), 124);
}

TEST_F(MawiTest, Dec24IsSingleSourceRandomIid) {
  std::set<net::Ipv6Address> srcs;
  std::set<net::Ipv6Address> dst64s;
  util::RunningStats hw;
  for (const auto& r : world_.generate_day(day_index(CivilDate{2021, 12, 24}))) {
    if (!world_.dec24_source64().contains(r.src)) continue;
    srcs.insert(r.src);
    dst64s.insert(r.dst.masked(64));
    hw.add(r.dst.iid_hamming_weight());
  }
  EXPECT_EQ(srcs.size(), 1u);
  EXPECT_NEAR(hw.mean(), 32.0, 1.0);                       // Gaussian HW
  EXPECT_GT(dst64s.size(), hw.count() * 99 / 100);          // ~every packet a new /64
}

TEST_F(MawiTest, FhDetectorFindsDominantScanner) {
  const auto recs = world_.generate_day(300);
  const auto scans = core::fh_detect(recs, {.min_destinations = 100});
  ASSERT_FALSE(scans.empty());
  std::uint64_t total = 0, as1 = 0;
  for (const auto& s : scans) {
    total += s.packets;
    if (s.source == world_.as1_source64()) as1 += s.packets;
  }
  EXPECT_GT(static_cast<double>(as1) / static_cast<double>(total), 0.5);
}

TEST_F(MawiTest, ThresholdFiveSeesSmallProbers) {
  const auto recs = world_.generate_day(120);
  const auto strict = core::fh_detect(recs, {.min_destinations = 100});
  const auto loose = core::fh_detect(recs, {.min_destinations = 5});
  EXPECT_GT(loose.size(), strict.size() * 3);  // Fig. 5's visibility gap
}

TEST_F(MawiTest, ImportAcceptsPcapng) {
  const auto dir = std::filesystem::temp_directory_path() /
                   ("v6sonar_mawi_ng_" + std::to_string(::getpid()));
  std::filesystem::create_directories(dir);
  const auto path = (dir / "day.pcapng").string();

  // Re-encode a generated day as pcapng and import it back.
  const auto original = world_.generate_day(33);
  {
    wire::PcapngWriter w(path);
    for (const auto& r : original) {
      std::vector<std::uint8_t> frame;
      switch (r.proto) {
        case wire::IpProto::kTcp:
          frame = wire::FrameBuilder::tcp(r.src, r.dst, r.src_port, r.dst_port);
          break;
        case wire::IpProto::kUdp:
          frame = wire::FrameBuilder::udp(r.src, r.dst, r.src_port, r.dst_port);
          break;
        case wire::IpProto::kIcmpv6:
          frame = wire::FrameBuilder::icmpv6_echo(r.src, r.dst, 1, 2);
          break;
      }
      w.write(r.ts_us, frame);
    }
  }
  std::uint64_t skipped = 0;
  const auto back = MawiWorld::import_pcap(path, &skipped);
  EXPECT_EQ(skipped, 0u);
  ASSERT_EQ(back.size(), original.size());
  for (std::size_t i = 0; i < back.size(); i += 53) {
    EXPECT_EQ(back[i].src, original[i].src);
    EXPECT_EQ(back[i].dst_port, original[i].dst_port);
    EXPECT_EQ(back[i].ts_us, original[i].ts_us);
  }
  std::filesystem::remove_all(dir);
}

TEST_F(MawiTest, PcapRoundTripPreservesSummaries) {
  const auto dir = std::filesystem::temp_directory_path() /
                   ("v6sonar_mawi_test_" + std::to_string(::getpid()));
  std::filesystem::create_directories(dir);
  const auto path = (dir / "day.pcap").string();

  const auto original = world_.generate_day(50);
  const auto written = world_.export_pcap(50, path);
  EXPECT_EQ(written, original.size());

  std::uint64_t skipped = 0;
  const auto back = MawiWorld::import_pcap(path, &skipped);
  EXPECT_EQ(skipped, 0u);
  ASSERT_EQ(back.size(), original.size());
  for (std::size_t i = 0; i < back.size(); i += 37) {
    EXPECT_EQ(back[i].src, original[i].src);
    EXPECT_EQ(back[i].dst, original[i].dst);
    EXPECT_EQ(back[i].proto, original[i].proto);
    EXPECT_EQ(back[i].dst_port, original[i].dst_port);
    EXPECT_EQ(back[i].frame_len, original[i].frame_len);
    EXPECT_EQ(back[i].ts_us / 1'000'000, original[i].ts_us / 1'000'000);
  }
  // The FH pipeline gives identical verdicts on the re-imported file.
  const auto direct = core::fh_detect(original, {.min_destinations = 100});
  const auto via_pcap = core::fh_detect(back, {.min_destinations = 100});
  EXPECT_EQ(direct.size(), via_pcap.size());
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace v6sonar::mawi
