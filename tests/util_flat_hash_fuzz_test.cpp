// Randomized differential fuzz for the group-probed FlatMap/FlatSet:
// long interleaved streams of insert / find / erase / reserve / clear
// / reset churn cross-checked against std::unordered_map/set, run for
// every probe-group implementation compiled into the build (SSE2 and
// the portable SWAR fallback), both heap- and pool-backed, with a
// well-avalanched hash and a deliberately clustering one. Growth
// boundaries, wraparound chains, and the *_hashed entry points all
// fall out of the random walk; a full-table sweep re-verifies the
// invariants at random points and at the end of every run.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "util/arena.hpp"
#include "util/flat_hash.hpp"
#include "util/rng.hpp"

namespace v6sonar::util {
namespace {

/// Adversarial hash: every key homes into one of eight slots (so probe
/// chains run long, span many groups, and wrap the table end) while
/// the top bits — the 7-bit control tags — stay well mixed, keeping
/// tag collisions realistic rather than total.
struct ClusterHash {
  std::size_t operator()(std::uint64_t k) const noexcept {
    constexpr std::size_t kTagBits = ~(~std::size_t{0} >> 7);
    return (IntHash{}(k) & kTagBits) | (k & 7);
  }
};

/// One mixed-op differential run. `pool` may be null (heap-backed).
template <class Hash, class Group>
void fuzz_map(std::uint64_t seed, SlabPool* pool) {
  FlatMap<std::uint64_t, std::uint64_t, Hash, Group> flat(pool);
  std::unordered_map<std::uint64_t, std::uint64_t> ref;
  Xoshiro256 rng(seed);

  const auto verify_all = [&] {
    ASSERT_EQ(flat.size(), ref.size());
    std::size_t visited = 0;
    flat.for_each([&](const std::uint64_t& k, const std::uint64_t& v) {
      ++visited;
      const auto it = ref.find(k);
      ASSERT_NE(it, ref.end()) << "phantom key " << k;
      EXPECT_EQ(it->second, v) << "value mismatch for " << k;
    });
    EXPECT_EQ(visited, ref.size());
  };

  for (int step = 0; step < 40'000; ++step) {
    // Small key domain: plenty of duplicate inserts, erase hits, and
    // find hits/misses; table size oscillates across growth/shrink.
    const std::uint64_t k = rng.below(700);
    const std::uint64_t roll = rng.below(1'000);
    if (roll < 550) {
      // Alternate the plain and the precomputed-hash entry points so
      // the fuzz proves they address the same slots.
      std::uint64_t& v = (step & 1) != 0 ? flat[k] : flat.insert_hashed(k, Hash{}(k));
      ++v;
      ++ref[k];
    } else if (roll < 800) {
      const std::uint64_t* p =
          (step & 1) != 0 ? flat.find(k) : flat.find_hashed(k, Hash{}(k));
      const auto it = ref.find(k);
      ASSERT_EQ(p != nullptr, it != ref.end()) << k;
      if (p != nullptr) {
        EXPECT_EQ(*p, it->second) << k;
      }
    } else if (roll < 970) {
      const bool erased =
          (step & 1) != 0 ? flat.erase(k) : flat.erase_hashed(k, Hash{}(k));
      EXPECT_EQ(erased, ref.erase(k) == 1) << k;
    } else if (roll < 980) {
      flat.reserve(rng.below(4'096));  // no-op or growth; never loses entries
      verify_all();
    } else if (roll < 985) {
      flat.clear();
      ref.clear();
    } else if (roll < 990) {
      flat.reset();
      ref.clear();
    } else {
      verify_all();
    }
    if (::testing::Test::HasFatalFailure()) return;
  }
  verify_all();
}

template <class Hash, class Group>
void fuzz_set(std::uint64_t seed, SlabPool* pool) {
  FlatSet<std::uint64_t, Hash, Group> flat(pool);
  std::unordered_set<std::uint64_t> ref;
  Xoshiro256 rng(seed);

  const auto verify_all = [&] {
    ASSERT_EQ(flat.size(), ref.size());
    std::size_t visited = 0;
    flat.for_each([&](const std::uint64_t& k) {
      ++visited;
      EXPECT_TRUE(ref.contains(k)) << "phantom key " << k;
    });
    EXPECT_EQ(visited, ref.size());
  };

  for (int step = 0; step < 40'000; ++step) {
    const std::uint64_t k = rng.below(700);
    const std::uint64_t roll = rng.below(1'000);
    if (roll < 550) {
      const bool fresh =
          (step & 1) != 0 ? flat.insert(k) : flat.insert_hashed(k, Hash{}(k));
      EXPECT_EQ(fresh, ref.insert(k).second) << k;
    } else if (roll < 970) {
      // FlatSet is insert-only (no erase): membership is the whole API.
      EXPECT_EQ(flat.contains(k), ref.contains(k)) << k;
    } else if (roll < 980) {
      flat.reserve(rng.below(4'096));
      verify_all();
    } else if (roll < 990) {
      flat.reset();
      ref.clear();
    } else {
      verify_all();
    }
    if (::testing::Test::HasFatalFailure()) return;
  }
  verify_all();
}

/// Every load-factor growth boundary up to a few thousand entries:
/// after each single insert, the whole prior population must still be
/// findable (rehash reinsertion) and absent keys must stay absent.
template <class Hash, class Group>
void growth_walk() {
  FlatMap<std::uint64_t, std::uint64_t, Hash, Group> flat;
  for (std::uint64_t i = 0; i < 3'000; ++i) {
    flat[i * 11] = i;
    ASSERT_EQ(flat.size(), i + 1);
    // Spot-check a sliding window plus the oldest key — O(1) per step
    // keeps the walk fast while still crossing every rehash.
    ASSERT_NE(flat.find(0), nullptr);
    for (std::uint64_t j = i >= 16 ? i - 16 : 0; j <= i; ++j) {
      const std::uint64_t* p = flat.find(j * 11);
      ASSERT_NE(p, nullptr) << "lost key after insert " << i;
      ASSERT_EQ(*p, j);
    }
    ASSERT_EQ(flat.find(i * 11 + 1), nullptr);
  }
}

// The fuzz runs for every Group the build can instantiate. On SSE2
// hosts that is both the vectorized group and the SWAR fallback, so
// every container operation runs under the fallback on every build.
template <class Group>
class FlatHashFuzz : public ::testing::Test {};

#if defined(__SSE2__)
using GroupTypes = ::testing::Types<detail::GroupSse2, detail::GroupSwar>;
#else
using GroupTypes = ::testing::Types<detail::GroupSwar>;
#endif
TYPED_TEST_SUITE(FlatHashFuzz, GroupTypes);

TYPED_TEST(FlatHashFuzz, MapHeapBacked) {
  for (std::uint64_t seed : {0xA11CEull, 0xB0Bull}) {
    fuzz_map<IntHash, TypeParam>(seed, nullptr);
    fuzz_map<ClusterHash, TypeParam>(seed ^ 0xF00D, nullptr);
  }
}

TYPED_TEST(FlatHashFuzz, MapPoolBacked) {
  SlabPool pool;
  for (std::uint64_t seed : {0xC4B1ull, 0xD06ull}) {
    fuzz_map<IntHash, TypeParam>(seed, &pool);
    fuzz_map<ClusterHash, TypeParam>(seed ^ 0xBEEF, &pool);
  }
}

TYPED_TEST(FlatHashFuzz, SetHeapBacked) {
  for (std::uint64_t seed : {0x5E7ull, 0x5EEDull}) {
    fuzz_set<IntHash, TypeParam>(seed, nullptr);
    fuzz_set<ClusterHash, TypeParam>(seed ^ 0xACE, nullptr);
  }
}

TYPED_TEST(FlatHashFuzz, SetPoolBacked) {
  SlabPool pool;
  for (std::uint64_t seed : {0x9001ull, 0x70ADull}) {
    fuzz_set<IntHash, TypeParam>(seed, &pool);
    fuzz_set<ClusterHash, TypeParam>(seed ^ 0xCAFE, &pool);
  }
}

TYPED_TEST(FlatHashFuzz, GrowthBoundaries) {
  growth_walk<IntHash, TypeParam>();
  growth_walk<ClusterHash, TypeParam>();
}

#if defined(__SSE2__)
/// One seeded churn into containers that differ only in their probe
/// group. Placement does not depend on the group width — the first
/// empty slot or the matching key on a probe path is the same for 8-
/// and 16-byte groups — so slot order (what for_each and every
/// checkpoint dump follow) must match at every point of the sequence.
template <class Hash>
void same_layout_under_both_groups(std::uint64_t seed) {
  FlatMap<std::uint64_t, std::uint64_t, Hash, detail::GroupSse2> map16;
  FlatMap<std::uint64_t, std::uint64_t, Hash, detail::GroupSwar> map8;
  FlatSet<std::uint64_t, Hash, detail::GroupSse2> set16;
  FlatSet<std::uint64_t, Hash, detail::GroupSwar> set8;
  Xoshiro256 rng(seed);

  const auto map_order = [](const auto& m) {
    std::vector<std::pair<std::uint64_t, std::uint64_t>> out;
    m.for_each([&](std::uint64_t k, std::uint64_t v) { out.emplace_back(k, v); });
    return out;
  };
  const auto set_order = [](const auto& s) {
    std::vector<std::uint64_t> out;
    s.for_each([&](std::uint64_t k) { out.push_back(k); });
    return out;
  };
  const auto same = [&](int step) {
    ASSERT_EQ(map16.capacity(), map8.capacity()) << "step " << step;
    ASSERT_EQ(map_order(map16), map_order(map8)) << "step " << step;
    ASSERT_EQ(set16.capacity(), set8.capacity()) << "step " << step;
    ASSERT_EQ(set_order(set16), set_order(set8)) << "step " << step;
  };

  for (int step = 0; step < 30'000; ++step) {
    const std::uint64_t k = rng.below(900);
    const std::uint64_t roll = rng.below(1'000);
    if (roll < 600) {
      map16[k] += k;
      map8[k] += k;
      set16.insert(k);
      set8.insert(k);
    } else if (roll < 960) {
      ASSERT_EQ(map16.erase(k), map8.erase(k)) << k;
    } else if (roll < 980) {
      const auto n = static_cast<std::size_t>(rng.below(4'096));
      map16.reserve(n);
      map8.reserve(n);
      set16.reserve(n);
      set8.reserve(n);
    } else if (roll < 985) {
      map16.clear();
      map8.clear();
      set16.reset();
      set8.reset();
    } else if (roll < 990) {
      map16.reset();
      map8.reset();
      set16.clear();
      set8.clear();
    } else {
      same(step);
    }
    if (step % 1'000 == 0) same(step);
    if (::testing::Test::HasFatalFailure()) return;
  }
  same(30'000);
}

TEST(FlatHashGroups, SwarAndSse2LayOutIdentically) {
  for (std::uint64_t seed : {0x6209ull, 0x16ull}) {
    same_layout_under_both_groups<IntHash>(seed);
    same_layout_under_both_groups<ClusterHash>(seed ^ 0x8);
  }
}
#endif

}  // namespace
}  // namespace v6sonar::util
