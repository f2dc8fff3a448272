// Tests for the open-addressing FlatSet/FlatMap, cross-checked against
// the standard containers on random workloads.
#include <gtest/gtest.h>

#include <cstdint>
#include <span>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "core/state_codec.hpp"
#include "net/ipv6.hpp"
#include "net/prefix.hpp"
#include "util/arena.hpp"
#include "util/flat_hash.hpp"
#include "util/rng.hpp"
#include "util/state_io.hpp"

namespace v6sonar::util {
namespace {

TEST(FlatSet, BasicInsertContains) {
  FlatSet<std::uint64_t, IntHash> s;
  EXPECT_TRUE(s.empty());
  EXPECT_FALSE(s.contains(5));
  EXPECT_TRUE(s.insert(5));
  EXPECT_FALSE(s.insert(5));  // duplicate
  EXPECT_TRUE(s.contains(5));
  EXPECT_EQ(s.size(), 1u);
  s.clear();
  EXPECT_TRUE(s.empty());
  EXPECT_FALSE(s.contains(5));
}

TEST(FlatSet, GrowthPreservesMembers) {
  FlatSet<std::uint64_t, IntHash> s;
  for (std::uint64_t i = 0; i < 10'000; ++i) EXPECT_TRUE(s.insert(i * 7));
  EXPECT_EQ(s.size(), 10'000u);
  for (std::uint64_t i = 0; i < 10'000; ++i) {
    EXPECT_TRUE(s.contains(i * 7));
    EXPECT_FALSE(s.contains(i * 7 + 1));
  }
}

TEST(FlatSet, ForEachVisitsAllOnce) {
  FlatSet<std::uint64_t, IntHash> s;
  for (std::uint64_t i = 0; i < 100; ++i) s.insert(i);
  std::unordered_set<std::uint64_t> seen;
  s.for_each([&](std::uint64_t k) { EXPECT_TRUE(seen.insert(k).second); });
  EXPECT_EQ(seen.size(), 100u);
}

TEST(FlatMap, OperatorBracketDefaultsAndAccumulates) {
  FlatMap<std::uint32_t, std::uint64_t, IntHash> m;
  EXPECT_EQ(m[7], 0u);
  ++m[7];
  ++m[7];
  m[9] = 5;
  EXPECT_EQ(m.size(), 2u);
  ASSERT_NE(m.find(7), nullptr);
  EXPECT_EQ(*m.find(7), 2u);
  EXPECT_EQ(m.find(8), nullptr);
}

TEST(FlatMap, EraseBasics) {
  FlatMap<std::uint32_t, std::uint64_t, IntHash> m;
  EXPECT_FALSE(m.erase(1));  // empty map
  m[1] = 10;
  m[2] = 20;
  EXPECT_TRUE(m.erase(1));
  EXPECT_FALSE(m.erase(1));  // already gone
  EXPECT_EQ(m.find(1), nullptr);
  ASSERT_NE(m.find(2), nullptr);
  EXPECT_EQ(*m.find(2), 20u);
  EXPECT_EQ(m.size(), 1u);
}

/// Backward-shift deletion must keep probe chains intact: keys that
/// collided with (and probed past) the erased key stay findable.
TEST(FlatMap, EraseKeepsCollidingChainReachable) {
  // IntHash of equal values is equal, so force collisions with an
  // identity-like functor: keys chosen within one small home bucket.
  struct SameHome {
    std::size_t operator()(std::uint32_t) const noexcept { return 3; }
  };
  FlatMap<std::uint32_t, std::uint64_t, SameHome> m;
  for (std::uint32_t k = 0; k < 6; ++k) m[k] = k + 100;  // one long chain
  EXPECT_TRUE(m.erase(0));  // head of the chain
  for (std::uint32_t k = 1; k < 6; ++k) {
    ASSERT_NE(m.find(k), nullptr) << k;
    EXPECT_EQ(*m.find(k), k + 100u);
  }
  EXPECT_TRUE(m.erase(3));  // middle of the chain
  for (std::uint32_t k : {1u, 2u, 4u, 5u}) {
    ASSERT_NE(m.find(k), nullptr) << k;
    EXPECT_EQ(*m.find(k), k + 100u);
  }
  EXPECT_EQ(m.size(), 4u);
}

/// Chains that wrap around the end of the slot array are the classic
/// backward-shift bug; pin keys whose home slots sit at the top of the
/// table so the probe sequence crosses index 0.
TEST(FlatMap, EraseHandlesWraparoundChains) {
  struct TopHome {
    // Homes 14 and 15 in the initial 16-slot table, so a five-key chain
    // occupies slots 14, 15, 0, 1, 2 — crossing the wrap point.
    std::size_t operator()(std::uint32_t k) const noexcept { return 14 + (k & 1); }
  };
  FlatMap<std::uint32_t, std::uint64_t, TopHome> m;
  for (std::uint32_t k = 0; k < 5; ++k) m[k] = k + 7;  // cap stays 16; chain wraps past slot 15
  for (std::uint32_t victim = 0; victim < 5; ++victim) {
    auto copy = m;
    EXPECT_TRUE(copy.erase(victim));
    EXPECT_EQ(copy.find(victim), nullptr);
    for (std::uint32_t k = 0; k < 5; ++k) {
      if (k == victim) continue;
      ASSERT_NE(copy.find(k), nullptr) << "victim=" << victim << " k=" << k;
      EXPECT_EQ(*copy.find(k), k + 7u);
    }
  }
}

/// Randomized interleaved insert/erase cross-checked against
/// std::unordered_map (tombstone-free erase must agree under any
/// interleaving).
TEST(FlatMap, EraseAgreesWithStdUnderChurn) {
  Xoshiro256 rng(77);
  FlatMap<std::uint32_t, std::uint64_t, IntHash> flat;
  std::unordered_map<std::uint32_t, std::uint64_t> ref;
  for (int i = 0; i < 50'000; ++i) {
    const auto k = static_cast<std::uint32_t>(rng.below(500));
    if (rng.below(3) == 0) {
      EXPECT_EQ(flat.erase(k), ref.erase(k) > 0) << "iter " << i;
    } else {
      ++flat[k];
      ++ref[k];
    }
  }
  EXPECT_EQ(flat.size(), ref.size());
  for (const auto& [k, v] : ref) {
    ASSERT_NE(flat.find(k), nullptr) << k;
    EXPECT_EQ(*flat.find(k), v);
  }
}

TEST(FlatMap, ForEachMatchesContents) {
  FlatMap<std::uint32_t, std::uint64_t, IntHash> m;
  for (std::uint32_t i = 0; i < 500; ++i) m[i] = i * 2;
  std::size_t n = 0;
  m.for_each([&](std::uint32_t k, std::uint64_t v) {
    EXPECT_EQ(v, k * 2u);
    ++n;
  });
  EXPECT_EQ(n, 500u);
}

TEST(FlatSet, ClearReleasesStorageResetKeepsIt) {
  FlatSet<std::uint64_t, IntHash> s;
  for (std::uint64_t i = 0; i < 1'000; ++i) s.insert(i);
  const std::size_t grown = s.capacity();
  ASSERT_GT(grown, 8u);

  s.reset();  // empty, but the slot array survives
  EXPECT_TRUE(s.empty());
  EXPECT_EQ(s.capacity(), grown);
  for (std::uint64_t i = 0; i < 1'000; ++i) {
    EXPECT_FALSE(s.contains(i));
    EXPECT_TRUE(s.insert(i));
  }
  EXPECT_EQ(s.capacity(), grown);  // refill triggered no growth

  s.clear();  // storage genuinely released
  EXPECT_TRUE(s.empty());
  EXPECT_EQ(s.capacity(), 0u);
  EXPECT_FALSE(s.contains(1));
  EXPECT_TRUE(s.insert(1));  // usable again from scratch
}

TEST(FlatMap, ReserveAvoidsGrowthDuringFill) {
  FlatMap<std::uint32_t, std::uint64_t, IntHash> m;
  m.reserve(1'000);
  const std::size_t cap = m.capacity();
  ASSERT_GT(cap, 0u);
  for (std::uint32_t i = 0; i < 1'000; ++i) m[i] = i;
  EXPECT_EQ(m.capacity(), cap);
  EXPECT_EQ(m.size(), 1'000u);

  m.reset();
  EXPECT_EQ(m.find(5), nullptr);
  m[5] = 7;
  ASSERT_NE(m.find(5), nullptr);
  EXPECT_EQ(*m.find(5), 7u);

  m.clear();
  EXPECT_EQ(m.capacity(), 0u);
  m.reserve(10);  // small reserve still allocates the 8-slot floor
  EXPECT_GE(m.capacity(), 8u);
}

TEST(FlatContainers, PoolRecyclesStorageAcrossLifetimes) {
  SlabPool pool;
  // First generation grows through several slot-array sizes...
  {
    FlatSet<std::uint64_t, IntHash> s(&pool);
    for (std::uint64_t i = 0; i < 1'000; ++i) s.insert(i);
  }
  const auto fresh_after_first = pool.fresh_blocks();
  EXPECT_GT(fresh_after_first, 0u);
  // ...and every later same-shape generation runs entirely off the
  // freelists: zero new allocator traffic.
  for (int gen = 0; gen < 10; ++gen) {
    FlatSet<std::uint64_t, IntHash> s(&pool);
    for (std::uint64_t i = 0; i < 1'000; ++i) s.insert(i);
    EXPECT_EQ(s.size(), 1'000u);
  }
  EXPECT_EQ(pool.fresh_blocks(), fresh_after_first);
  EXPECT_GT(pool.recycled_blocks(), 0u);
}

TEST(FlatContainers, CopyAndMoveCarryContentsAndPool) {
  SlabPool pool;
  FlatMap<std::uint32_t, std::uint64_t, IntHash> a(&pool);
  for (std::uint32_t i = 0; i < 100; ++i) a[i] = i * 3;

  FlatMap<std::uint32_t, std::uint64_t, IntHash> b(a);  // copy
  a.clear();
  EXPECT_EQ(b.size(), 100u);
  for (std::uint32_t i = 0; i < 100; ++i) {
    ASSERT_NE(b.find(i), nullptr);
    EXPECT_EQ(*b.find(i), i * 3u);
  }

  FlatMap<std::uint32_t, std::uint64_t, IntHash> c(std::move(b));  // move
  EXPECT_EQ(c.size(), 100u);
  EXPECT_EQ(b.size(), 0u);  // NOLINT(bugprone-use-after-move): defined empty
  auto& self = c;
  c = self;  // self-assignment is a no-op
  EXPECT_EQ(c.size(), 100u);

  FlatMap<std::uint32_t, std::uint64_t, IntHash> d;
  d = c;  // copy-assign across pool/no-pool
  EXPECT_EQ(d.size(), 100u);
}

// Property: FlatSet agrees with std::unordered_set on random streams
// of inserts (with duplicates), for both integer and address keys.
class FlatVsStd : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FlatVsStd, SetAgreesWithStd) {
  Xoshiro256 rng(GetParam());
  FlatSet<std::uint64_t, IntHash> flat;
  std::unordered_set<std::uint64_t> ref;
  for (int i = 0; i < 20'000; ++i) {
    const std::uint64_t k = rng.below(5'000);  // plenty of duplicates
    EXPECT_EQ(flat.insert(k), ref.insert(k).second);
  }
  EXPECT_EQ(flat.size(), ref.size());
  for (std::uint64_t k = 0; k < 5'000; ++k) EXPECT_EQ(flat.contains(k), ref.contains(k));
}

TEST_P(FlatVsStd, AddressSetAgreesWithStd) {
  Xoshiro256 rng(GetParam() ^ 0xABCD);
  FlatSet<net::Ipv6Address> flat;
  std::unordered_set<net::Ipv6Address> ref;
  for (int i = 0; i < 5'000; ++i) {
    const net::Ipv6Address a{rng.below(64), rng.below(64)};
    EXPECT_EQ(flat.insert(a), ref.insert(a).second);
  }
  EXPECT_EQ(flat.size(), ref.size());
}

TEST_P(FlatVsStd, MapAgreesWithStd) {
  Xoshiro256 rng(GetParam() ^ 0x1234);
  FlatMap<std::uint32_t, std::uint64_t, IntHash> flat;
  std::unordered_map<std::uint32_t, std::uint64_t> ref;
  for (int i = 0; i < 20'000; ++i) {
    const auto k = static_cast<std::uint32_t>(rng.below(2'000));
    ++flat[k];
    ++ref[k];
  }
  EXPECT_EQ(flat.size(), ref.size());
  for (const auto& [k, v] : ref) {
    ASSERT_NE(flat.find(k), nullptr);
    EXPECT_EQ(*flat.find(k), v);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FlatVsStd, ::testing::Values(1u, 2u, 3u, 4u, 5u));

std::uint64_t fnv1a(std::span<const std::uint8_t> bytes) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const std::uint8_t b : bytes) h = (h ^ b) * 0x100000001b3ULL;
  return h;
}

/// Checkpoint payloads are save_flat dumps, written in slot order. Pin
/// the bytes of a seeded insert/erase/grow history of the two shapes
/// the detector saves (prefix-keyed map, address set) to digests
/// committed with the table: a change to probing, growth, erase or
/// iteration that moves one element changes a digest here, not
/// silently the order of every checkpoint section.
TEST(FlatGolden, SaveFlatBytesArePinned) {
  Xoshiro256 rng(0x5107);
  FlatMap<net::Ipv6Prefix, std::uint64_t> prefixes;
  FlatSet<net::Ipv6Address> addresses;
  const auto digests = [&] {
    StateWriter map_bytes;
    StateWriter set_bytes;
    save_flat(map_bytes, prefixes);
    save_flat(set_bytes, addresses);
    return std::pair{fnv1a(map_bytes.bytes()), fnv1a(set_bytes.bytes())};
  };
  std::vector<std::pair<std::uint64_t, std::uint64_t>> got;
  for (int step = 1; step <= 12'000; ++step) {
    // Small domains: repeated inserts, erase hits, and sizes that
    // cross several growth points and shrink back.
    const net::Ipv6Address a{0x2001'0db8'0000'0000ULL | (rng.below(1'500) << 16), rng.below(4)};
    const net::Ipv6Prefix p(a, 40 + 8 * static_cast<int>(rng.below(2)));
    const std::uint64_t roll = rng.below(100);
    if (roll < 60) {
      prefixes[p] += step;
      addresses.insert(a);
    } else if (roll < 95) {
      prefixes.erase(p);
    } else {
      prefixes.reserve(prefixes.size() + rng.below(600));
    }
    if (step == 7'000) addresses.reset();  // keeps its slot array; refills land in it
    if (step % 3'000 == 0) got.push_back(digests());
  }
  const std::vector<std::pair<std::uint64_t, std::uint64_t>> want = {
      {0x62dd84ee58f1d65bULL, 0xad5a60d1dddb6ba0ULL},
      {0x7338b701bdf09984ULL, 0x21e89e09852d783fULL},
      {0xb516ebb2de6fd061ULL, 0xc1a9d2385b226b65ULL},
      {0x2375b205976e0ec1ULL, 0x8c228637001b468dULL},
  };
  EXPECT_EQ(got, want);
}

}  // namespace
}  // namespace v6sonar::util
