// Tests for scanner strategies, the actor generator, the hitlist, and
// the default cast.
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <unordered_set>

#include "scanner/actor.hpp"

#include "util/stats.hpp"
#include "scanner/cast.hpp"
#include "scanner/hitlist.hpp"
#include "scanner/ports.hpp"
#include "scanner/sourcing.hpp"
#include "scanner/targeting.hpp"
#include "util/timebase.hpp"

namespace v6sonar::scanner {
namespace {

using net::Ipv6Address;
using net::Ipv6Prefix;
using sim::TimeUs;

TargetList make_list(std::size_t n, std::uint64_t hi = 0x2600'0000'0000'0000ULL) {
  auto v = std::make_shared<std::vector<Ipv6Address>>();
  for (std::size_t i = 0; i < n; ++i) v->emplace_back(Ipv6Address{hi + (i << 8), i + 1});
  return v;
}

TEST(Ports, FixedPortAlwaysSame) {
  util::Xoshiro256 rng(1);
  FixedPort p(22);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(p.next(rng, 0), 22);
}

TEST(Ports, CycleCoversSetUniformly) {
  util::Xoshiro256 rng(1);
  PortSetCycle p({1, 2, 3});
  std::vector<std::uint16_t> seen;
  for (int i = 0; i < 6; ++i) seen.push_back(p.next(rng, 0));
  EXPECT_EQ(seen, (std::vector<std::uint16_t>{1, 2, 3, 1, 2, 3}));
  EXPECT_THROW(PortSetCycle({}), std::invalid_argument);
}

TEST(Ports, RangeSweepWrapsAround) {
  util::Xoshiro256 rng(1);
  PortRangeSweep p(10, 12);
  EXPECT_EQ(p.next(rng, 0), 10);
  EXPECT_EQ(p.next(rng, 0), 11);
  EXPECT_EQ(p.next(rng, 0), 12);
  EXPECT_EQ(p.next(rng, 0), 10);
  EXPECT_THROW(PortRangeSweep(5, 4), std::invalid_argument);
}

TEST(Ports, EpisodicSwitchChangesAtTime) {
  util::Xoshiro256 rng(1);
  EpisodicSwitch p(100, std::make_unique<FixedPort>(1), std::make_unique<FixedPort>(2));
  EXPECT_EQ(p.next(rng, 99), 1);
  EXPECT_EQ(p.next(rng, 100), 2);
  EXPECT_EQ(p.next(rng, 101), 2);
}

TEST(Ports, EpisodicPortWalkAdvancesPerEpisode) {
  util::Xoshiro256 rng(1);
  EpisodicPortWalk p({10, 20, 30}, 100);
  EXPECT_EQ(p.next(rng, 0), 10);
  EXPECT_EQ(p.next(rng, 50), 10);   // within the episode
  EXPECT_EQ(p.next(rng, 100), 20);  // episode boundary
  EXPECT_EQ(p.next(rng, 150), 20);
  EXPECT_EQ(p.next(rng, 260), 30);
  EXPECT_EQ(p.next(rng, 370), 10);  // wraps
  EXPECT_THROW(EpisodicPortWalk({}, 100), std::invalid_argument);
  EXPECT_THROW(EpisodicPortWalk({1}, 0), std::invalid_argument);
}

TEST(Ports, PenTestSubsetIsVariedAndWeighted) {
  util::Xoshiro256 rng(11);
  int with_1433 = 0, with_22 = 0, with_9200 = 0;
  std::set<std::size_t> sizes;
  for (int i = 0; i < 400; ++i) {
    const auto subset = ports::pen_test_subset(rng);
    EXPECT_FALSE(subset.empty());
    sizes.insert(subset.size());
    with_1433 += std::find(subset.begin(), subset.end(), 1433) != subset.end();
    with_22 += std::find(subset.begin(), subset.end(), 22) != subset.end();
    with_9200 += std::find(subset.begin(), subset.end(), 9200) != subset.end();
  }
  EXPECT_GT(sizes.size(), 5u);      // actors differ
  EXPECT_NEAR(with_1433, 240, 50);  // ~60% inclusion
  EXPECT_NEAR(with_22, 180, 50);    // ~45%
  EXPECT_LT(with_9200, 80);         // tail port is rare
  EXPECT_GT(with_1433, with_22);    // 1433 tops the popularity order
}

TEST(Ports, NamedSetsHaveDocumentedSizes) {
  EXPECT_EQ(ports::pen_test_set().size(), 30u);
  EXPECT_EQ(ports::large_set_444().size(), 444u);
  EXPECT_EQ(ports::large_set_635().size(), 635u);
  EXPECT_EQ(ports::as1_late_set(), (std::vector<std::uint16_t>{22, 3389, 8080, 8443}));
  // The late set is inside the 444 set (the paper's AS#1 narrowed,
  // not changed, its targets).
  const auto big = ports::large_set_444();
  for (auto p : ports::as1_late_set())
    EXPECT_NE(std::find(big.begin(), big.end(), p), big.end()) << p;
}

TEST(Targeting, SweepVisitsEveryTargetBeforeRepeat) {
  util::Xoshiro256 rng(1);
  const auto list = make_list(97);
  ListSweepTargets sweep(list, 42);
  std::set<Ipv6Address> seen;
  for (std::size_t i = 0; i < list->size(); ++i) seen.insert(sweep.next(rng));
  EXPECT_EQ(seen.size(), list->size());  // full coverage, no repeats
}

TEST(Targeting, SampleStaysInList) {
  util::Xoshiro256 rng(2);
  const auto list = make_list(10);
  ListSampleTargets sample(list);
  const std::set<Ipv6Address> valid(list->begin(), list->end());
  for (int i = 0; i < 100; ++i) EXPECT_TRUE(valid.contains(sample.next(rng)));
}

TEST(Targeting, EmptyListsRejected) {
  auto empty = std::make_shared<std::vector<Ipv6Address>>();
  EXPECT_THROW((ListSweepTargets{empty, 1}), std::invalid_argument);
  EXPECT_THROW((ListSampleTargets{empty}), std::invalid_argument);
  EXPECT_THROW((NearbyExpansionTargets{empty, 0.5, 4}), std::invalid_argument);
  EXPECT_THROW((ExhaustiveNearbyTargets{empty, 4}), std::invalid_argument);
}

TEST(Targeting, NearbyExpansionStaysInWindow) {
  util::Xoshiro256 rng(3);
  const auto list = make_list(5);
  NearbyExpansionTargets nearby(list, /*expand_prob=*/1.0, /*nearby_bits=*/4);
  const Ipv6Address first = nearby.next(rng);  // always a list address first
  for (int i = 0; i < 50; ++i) {
    const Ipv6Address t = nearby.next(rng);
    EXPECT_GE(t.common_prefix_len(first), 124);
  }
}

TEST(Targeting, ExhaustiveNearbyEnumeratesWholeWindow) {
  util::Xoshiro256 rng(4);
  const auto list = make_list(1);
  ExhaustiveNearbyTargets strat(list, 4);
  const Ipv6Address dns = strat.next(rng);
  EXPECT_EQ(dns, (*list)[0]);
  std::set<Ipv6Address> window;
  for (int i = 0; i < 16; ++i) window.insert(strat.next(rng));
  EXPECT_EQ(window.size(), 16u);  // all 16 addresses of the /124
  for (const auto& a : window) EXPECT_GE(a.common_prefix_len(dns), 124);
  EXPECT_TRUE(window.contains(dns));  // the in-DNS address is re-probed
}

TEST(Targeting, RandomIidHammingIsGaussianish) {
  util::Xoshiro256 rng(5);
  RandomIidTargets strat(Ipv6Prefix::parse_or_throw("3900::/16"));
  util::RunningStats hw;
  std::unordered_set<Ipv6Address> dst64s;
  for (int i = 0; i < 2'000; ++i) {
    const auto t = strat.next(rng);
    EXPECT_TRUE(Ipv6Prefix::parse_or_throw("3900::/16").contains(t));
    hw.add(t.iid_hamming_weight());
    dst64s.insert(t.masked(64));
  }
  EXPECT_NEAR(hw.mean(), 32.0, 0.5);   // Binomial(64, 1/2)
  EXPECT_NEAR(hw.stddev(), 4.0, 0.5);
  EXPECT_GT(dst64s.size(), 1'990u);  // nearly every probe hits a new /64
  EXPECT_THROW(RandomIidTargets(Ipv6Prefix::parse_or_throw("::/96")), std::invalid_argument);
}

TEST(Targeting, MixedRespectsWeightsRoughly) {
  util::Xoshiro256 rng(6);
  const auto a = make_list(1, 0x1111'0000'0000'0000ULL);
  const auto b = make_list(1, 0x2222'0000'0000'0000ULL);
  std::vector<MixedTargets::Component> comps;
  comps.push_back({std::make_unique<ListSampleTargets>(a), 0.9});
  comps.push_back({std::make_unique<ListSampleTargets>(b), 0.1});
  MixedTargets mixed(std::move(comps));
  int from_a = 0;
  for (int i = 0; i < 2'000; ++i) from_a += mixed.next(rng).hi() >> 48 == 0x1111;
  EXPECT_NEAR(from_a / 2'000.0, 0.9, 0.05);
}

TEST(Sourcing, FixedSourceNeverChanges) {
  util::Xoshiro256 rng(1);
  const Ipv6Address a{1, 2};
  FixedSource s(a);
  EXPECT_EQ(s.next(rng, 0), a);
  EXPECT_EQ(s.next(rng, 999'999'999), a);
}

TEST(Sourcing, RotatingPoolRotatesOnSchedule) {
  util::Xoshiro256 rng(2);
  std::vector<Ipv6Address> pool;
  for (std::uint64_t i = 0; i < 16; ++i) pool.emplace_back(Ipv6Address{0, i});
  RotatingPool s(pool, 100);
  s.on_session_start(rng);
  const Ipv6Address first = s.next(rng, 1'000);
  EXPECT_EQ(s.next(rng, 1'050), first);  // within the period
  std::set<Ipv6Address> seen;
  for (TimeUs t = 1'000; t < 20'000; t += 100) seen.insert(s.next(rng, t));
  EXPECT_GT(seen.size(), 5u);  // rotation actually happens
  EXPECT_THROW(RotatingPool({}, 100), std::invalid_argument);
}

TEST(Sourcing, SequentialRotationVisitsPoolInOrder) {
  util::Xoshiro256 rng(9);
  std::vector<Ipv6Address> pool;
  for (std::uint64_t i = 0; i < 8; ++i) pool.emplace_back(Ipv6Address{0, i});
  RotatingPool s(pool, 100, RotationMode::kSequential);
  s.on_session_start(rng);
  std::vector<std::uint64_t> order;
  for (TimeUs t = 1'000; t < 1'900; t += 100) order.push_back(s.next(rng, t).lo());
  // Consecutive slots advance by exactly one pool position (mod size):
  // no address recurs until the pool wraps.
  for (std::size_t i = 1; i < order.size(); ++i)
    EXPECT_EQ(order[i], (order[i - 1] + 1) % 8) << i;
  std::set<std::uint64_t> first_cycle(order.begin(), order.begin() + 8);
  EXPECT_EQ(first_cycle.size(), 8u);
}

TEST(Sourcing, LowBitsVaryingKeepsHighBits) {
  util::Xoshiro256 rng(3);
  const Ipv6Address base{0xAA, 0x5000};
  LowBitsVarying s({base}, 9);
  std::set<Ipv6Address> seen;
  for (int i = 0; i < 2'000; ++i) {
    const auto a = s.next(rng, 0);
    EXPECT_EQ(a.hi(), base.hi());
    EXPECT_EQ(a.lo() & ~0x1FFULL, 0x5000u & ~0x1FFULL);
    seen.insert(a);
  }
  EXPECT_GT(seen.size(), 450u);  // most of the 512 possibilities
  EXPECT_THROW(LowBitsVarying({}, 9), std::invalid_argument);
  EXPECT_THROW(LowBitsVarying({base}, 0), std::invalid_argument);
}

TEST(Sourcing, PrefixSpreadStaysInAllocationAndVariesPerSession) {
  util::Xoshiro256 rng(4);
  const auto alloc = Ipv6Prefix::parse_or_throw("2a10:12::/32");
  PrefixSpread s(alloc, 1'000);
  std::set<Ipv6Address> sessions;
  std::set<std::uint64_t> slash48s;
  for (int i = 0; i < 200; ++i) {
    s.on_session_start(rng);
    const auto a = s.next(rng, 0);
    EXPECT_TRUE(alloc.contains(a));
    EXPECT_EQ(s.next(rng, 999), a);  // constant within session
    sessions.insert(a);
    slash48s.insert(a.masked(48).hi());
  }
  EXPECT_EQ(sessions.size(), 200u);  // essentially never repeats
  EXPECT_GT(slash48s.size(), 100u);  // spread over many /48s
  EXPECT_THROW(PrefixSpread(Ipv6Prefix::parse_or_throw("::/64"), 10), std::invalid_argument);
}

TEST(Sourcing, Spread48SessionRotatesSlash64sWithinOneSlash48) {
  util::Xoshiro256 rng(5);
  const auto alloc = Ipv6Prefix::parse_or_throw("2a10:12::/32");
  Spread48Session s(alloc, 1'000, 6, 100);
  s.on_session_start(rng);
  std::set<std::uint64_t> slash64s;
  std::set<std::uint64_t> slash48s;
  for (TimeUs t = 1'000; t < 10'000; t += 100) {
    const auto a = s.next(rng, t);
    EXPECT_TRUE(alloc.contains(a));
    slash64s.insert(a.masked(64).hi());
    slash48s.insert(a.masked(48).hi());
  }
  EXPECT_EQ(slash48s.size(), 1u);  // one /48 per session
  EXPECT_GT(slash64s.size(), 2u);  // several /64s inside it
}

TEST(Sourcing, VmPoolRequiresSpecificPrefixes) {
  EXPECT_THROW(VmPoolSource({Ipv6Prefix::parse_or_throw("2a10:6::/64")}),
               std::invalid_argument);
  util::Xoshiro256 rng(6);
  VmPoolSource s({Ipv6Prefix::parse_or_throw("2a10:6::a0/124"),
                  Ipv6Prefix::parse_or_throw("2a10:6:1::b0/124")});
  s.on_session_start(rng);
  const auto a = s.next(rng, 0);
  EXPECT_TRUE(Ipv6Prefix::parse_or_throw("2a10:6::/32").contains(a));
}

TEST(Hitlist, CoversDnsAndExternal) {
  const auto dns = make_list(1'000);
  Hitlist hl({.seed = 1, .dns_coverage = 0.9, .external_addresses = 500}, *dns);
  EXPECT_GT(hl.addresses().size(), 1'200u);
  std::size_t dns_hits = 0;
  for (const auto& a : *dns) dns_hits += hl.contains(a);
  EXPECT_NEAR(static_cast<double>(dns_hits), 900.0, 40.0);
  EXPECT_DOUBLE_EQ(hl.overlap(*dns), static_cast<double>(dns_hits) / 1'000.0);
  EXPECT_DOUBLE_EQ(hl.overlap({}), 0.0);
  EXPECT_DOUBLE_EQ(hl.overlap(hl.addresses()), 1.0);
}

TEST(Hitlist, SaveLoadRoundTrip) {
  namespace fs = std::filesystem;
  const auto dir =
      fs::temp_directory_path() / ("v6sonar_hitlist_test_" + std::to_string(::getpid()));
  fs::create_directories(dir);
  const auto path = (dir / "hitlist.txt").string();

  const auto dns = make_list(200);
  Hitlist hl({.seed = 4, .dns_coverage = 1.0, .external_addresses = 100}, *dns);
  hl.save(path);
  const auto back = Hitlist::load_addresses(path);
  ASSERT_EQ(back.size(), hl.addresses().size());
  for (std::size_t i = 0; i < back.size(); i += 17)
    EXPECT_EQ(back[i], hl.addresses()[i]);
  fs::remove_all(dir);
}

TEST(Hitlist, LoadSkipsCommentsAndRejectsGarbage) {
  namespace fs = std::filesystem;
  const auto dir =
      fs::temp_directory_path() / ("v6sonar_hitlist_test2_" + std::to_string(::getpid()));
  fs::create_directories(dir);
  const auto good = (dir / "good.txt").string();
  {
    std::ofstream f(good);
    f << "# a comment\n\n  2001:db8::1  \n2600::2\r\n";
  }
  const auto addrs = Hitlist::load_addresses(good);
  ASSERT_EQ(addrs.size(), 2u);
  EXPECT_EQ(addrs[0].to_string(), "2001:db8::1");

  const auto bad = (dir / "bad.txt").string();
  {
    std::ofstream f(bad);
    f << "2600::1\nnot-an-address\n";
  }
  EXPECT_THROW((void)Hitlist::load_addresses(bad), std::invalid_argument);
  EXPECT_THROW((void)Hitlist::load_addresses((dir / "missing.txt").string()),
               std::runtime_error);
  fs::remove_all(dir);
}

TEST(Hitlist, ExternalAddressesHaveLowHammingWeight) {
  const auto dns = make_list(10);
  Hitlist hl({.seed = 2, .dns_coverage = 0.0, .external_addresses = 2'000}, *dns);
  util::RunningStats hw;
  for (const auto& a : hl.addresses()) hw.add(a.iid_hamming_weight());
  EXPECT_LT(hw.mean(), 10.0);  // structured, not SLAAC-random
}

TEST(Actor, RecordsAreTimeOrderedAndInWindow) {
  ActorConfig ac;
  ac.asn = 99;
  ac.pps = 10;
  ac.sessions_per_week = 20;
  ac.session_targets_min = 50;
  ac.session_targets_max = 100;
  ac.start_us = sim::us_from_seconds(util::kWindowStart);
  ac.end_us = sim::us_from_seconds(util::kWindowStart + 14 * 86'400);
  ac.seed = 11;
  ScanActor actor(ac, std::make_unique<FixedPort>(22),
                  std::make_unique<FixedSource>(Ipv6Address{1, 1}),
                  std::make_unique<ListSampleTargets>(make_list(500)));
  TimeUs prev = 0;
  std::size_t n = 0;
  while (auto r = actor.next()) {
    EXPECT_GE(r->ts_us, prev);
    EXPECT_GE(r->ts_us, ac.start_us);
    EXPECT_LT(r->ts_us, ac.end_us);
    EXPECT_EQ(r->src_asn, 99u);
    EXPECT_EQ(r->dst_port, 22);
    prev = r->ts_us;
    ++n;
  }
  EXPECT_GT(n, 100u);  // ~40 sessions x >=50 targets
}

TEST(Actor, RetriesDuplicateTheTarget) {
  ActorConfig ac;
  ac.pps = 1;
  ac.continuous = true;
  ac.probes_per_target = 2;
  ac.start_us = 1;
  ac.end_us = 1'000'000'000;  // 1000 s
  ac.seed = 7;
  ScanActor actor(ac, std::make_unique<FixedPort>(22),
                  std::make_unique<FixedSource>(Ipv6Address{1, 1}),
                  std::make_unique<ListSampleTargets>(make_list(100'000)));
  std::map<Ipv6Address, int> hits;
  while (auto r = actor.next()) ++hits[r->dst];
  ASSERT_FALSE(hits.empty());
  std::size_t twice = 0;
  for (const auto& [dst, n] : hits) twice += n == 2;
  // Nearly every probed target is probed exactly twice (the trailing
  // target may lose its retry to the window end).
  EXPECT_GE(twice + 1, hits.size());
}

TEST(Actor, RejectsBadConfig) {
  auto mk = [](ActorConfig ac) {
    ScanActor a(ac, std::make_unique<FixedPort>(22),
                std::make_unique<FixedSource>(Ipv6Address{1, 1}),
                std::make_unique<ListSampleTargets>(make_list(10)));
  };
  ActorConfig ac;
  ac.pps = 0;
  EXPECT_THROW(mk(ac), std::invalid_argument);
  ac = {};
  ac.session_targets_min = 0;
  EXPECT_THROW(mk(ac), std::invalid_argument);
  ac = {};
  ac.probes_per_target = 0;
  EXPECT_THROW(mk(ac), std::invalid_argument);
  ac = {};
  ac.start_us = 10;
  ac.end_us = 5;
  EXPECT_THROW(mk(ac), std::invalid_argument);
}

TEST(Cast, BuildsPaperActorsAndRegistersAses) {
  sim::AsRegistry registry;
  const auto dns = make_list(2'000);
  const auto all = make_list(4'000);
  Hitlist hl({.external_addresses = 1'000}, *dns);
  CastConfig cfg;
  const auto cast = build_cast(cfg, registry, dns, all, hl);
  EXPECT_GT(cast.streams.size(), 60u);
  EXPECT_EQ(cast.streams.size(), cast.actors.size());
  // All 20 paper ranks are present.
  std::set<int> ranks;
  for (const auto& a : cast.actors)
    if (a.paper_rank > 0) ranks.insert(a.paper_rank);
  EXPECT_EQ(ranks.size(), 20u);
  // Registered ASes resolve scanner addresses.
  EXPECT_EQ(registry.asn_of(scanner_as_prefix(1).address().with_iid(0x15)),
            cfg.first_asn + 1);
  // Thinning metadata is sane.
  for (const auto& a : cast.actors) {
    EXPECT_GT(a.thinning, 0.0);
    EXPECT_LE(a.thinning, 1.0);
  }
}

TEST(Cast, RejectsEmptyTargets) {
  sim::AsRegistry registry;
  Hitlist hl({.external_addresses = 10}, {});
  auto empty = std::make_shared<std::vector<Ipv6Address>>();
  EXPECT_THROW(build_cast({}, registry, empty, empty, hl), std::invalid_argument);
}

}  // namespace
}  // namespace v6sonar::scanner
