// Open-addressing hash containers for the detector hot path.
//
// The scan detector keeps one destination set and one port map per
// tracked source; node-based std::unordered_* containers spend most of
// their time in per-node allocation and pointer chasing. These flat
// containers probe SwissTable-style: alongside the slot array lives a
// 1-byte control array holding, per slot, either "empty" (0x80) or the
// top 7 bits of the slot key's hash (the H2 tag, 0x00-0x7F). A lookup
// walks the control array a group at a time — 16 bytes per step with
// SSE2 (`_mm_cmpeq_epi8` + movemask), 8 bytes per step with a portable
// SWAR fallback — and only dereferences slots whose tag matches, so a
// probe chain of a dozen slots costs one 16-byte compare and usually
// zero or one full-key comparison instead of a dozen. Capacity is a
// power of two and erase is tombstone-free (backward-shift deletion
// keeps chains dense), so probe sequences are plain slot-granular
// linear probing underneath — the groups are just a vectorized window
// onto it. FlatMap and FlatSet are thin front ends over one
// detail::FlatTable that holds all of this; they only say what a slot
// holds.
//
// Slot storage can be backed by a util::SlabPool so the per-source
// create/destroy churn recycles slot arrays instead of hitting the
// global allocator (pass the pool to the constructor; it must outlive
// the container). Slots and control bytes are co-allocated in one
// block, so pool recycling and the copy constructor handle both with
// a single acquire/release/memcpy. reset() empties a container while
// keeping its slot array, so a reused container does not re-grow from
// minimum capacity; clear() additionally releases the storage.
//
// The *_hashed entry points (find_hashed/insert_hashed/erase_hashed/
// contains_hashed/prefetch_hash) take a precomputed hash so batch
// consumers can hash each record once and reuse the value across the
// source-index probe, the prefetch pipeline, and the expiry sweep.
// The caller must pass exactly Hash{}(key) — a mismatched hash makes
// the key unfindable and can duplicate it.
//
// Requirements: K and V trivially copyable; Hash must be avalanching
// (the probe start is hash & mask and the tag is the hash's top bits).
#pragma once

#include <bit>
#include <cstdint>
#include <cstring>
#include <functional>
#include <new>
#include <type_traits>
#include <utility>

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

#include "util/arena.hpp"
#include "util/metrics.hpp"

namespace v6sonar::util {
namespace detail {

/// Control byte for an unoccupied slot. Full slots hold the hash's top
/// 7 bits, so their control byte is 0x00-0x7F and the high bit alone
/// distinguishes empty from full.
inline constexpr std::uint8_t kCtrlEmpty = 0x80;

/// The 7-bit tag stored in the control byte of a full slot.
[[nodiscard]] inline constexpr std::uint8_t ctrl_tag(std::size_t h) noexcept {
  return static_cast<std::uint8_t>(h >> (sizeof(std::size_t) * 8 - 7));
}

/// Set of candidate offsets within a group, iterated lowest-first.
/// SSE2 yields one bit per byte (Shift = 0); SWAR yields the byte's
/// MSB, i.e. bit 8*offset+7 (Shift = 3). Offsets come out in slot
/// order either way, which insert relies on for first-empty placement.
template <unsigned Shift>
struct ProbeMask {
  std::uint64_t bits = 0;
  [[nodiscard]] bool any() const noexcept { return bits != 0; }
  [[nodiscard]] std::size_t offset() const noexcept {
    return static_cast<std::size_t>(std::countr_zero(bits)) >> Shift;
  }
  void advance() noexcept { bits &= bits - 1; }
};

[[nodiscard]] inline std::uint64_t load_le64(const std::uint8_t* p) noexcept {
  std::uint64_t v;
  std::memcpy(&v, p, sizeof v);
  if constexpr (std::endian::native == std::endian::big) {
#if defined(__GNUC__) || defined(__clang__)
    v = __builtin_bswap64(v);
#else
    v = ((v & 0x00000000000000ffULL) << 56) | ((v & 0x000000000000ff00ULL) << 40) |
        ((v & 0x0000000000ff0000ULL) << 24) | ((v & 0x00000000ff000000ULL) << 8) |
        ((v & 0x000000ff00000000ULL) >> 8) | ((v & 0x0000ff0000000000ULL) >> 24) |
        ((v & 0x00ff000000000000ULL) >> 40) | ((v & 0xff00000000000000ULL) >> 56);
#endif
  }
  return v;
}

/// Portable 8-byte group: one 64-bit load, zero-byte detection via the
/// classic SWAR trick. match() may report false positives (a byte one
/// greater than the tag under borrow propagation), but only ever on
/// full slots — empty bytes have the high bit set, which `~x` always
/// clears — so the full-key compare filters them and garbage keys in
/// empty slots are never read.
struct GroupSwar {
  static constexpr std::size_t kWidth = 8;
  static constexpr std::uint64_t kLsbs = 0x0101010101010101ULL;
  static constexpr std::uint64_t kMsbs = 0x8080808080808080ULL;

  explicit GroupSwar(const std::uint8_t* p) noexcept : ctrl_(load_le64(p)) {}

  [[nodiscard]] ProbeMask<3> match(std::uint8_t tag) const noexcept {
    const std::uint64_t x = ctrl_ ^ (kLsbs * tag);
    return {(x - kLsbs) & ~x & kMsbs};
  }
  [[nodiscard]] ProbeMask<3> empty_mask() const noexcept { return {ctrl_ & kMsbs}; }
  [[nodiscard]] bool has_empty() const noexcept { return (ctrl_ & kMsbs) != 0; }

 private:
  std::uint64_t ctrl_;
};

#if defined(__SSE2__)
/// 16-byte group: one unaligned vector load; tag matches and the empty
/// mask each cost one compare + movemask (empty bytes are the only
/// ones with the high bit set, so movemask of the raw control bytes IS
/// the empty mask).
struct GroupSse2 {
  static constexpr std::size_t kWidth = 16;

  explicit GroupSse2(const std::uint8_t* p) noexcept
      : ctrl_(_mm_loadu_si128(reinterpret_cast<const __m128i*>(p))) {}

  [[nodiscard]] ProbeMask<0> match(std::uint8_t tag) const noexcept {
    const __m128i eq = _mm_cmpeq_epi8(ctrl_, _mm_set1_epi8(static_cast<char>(tag)));
    return {static_cast<std::uint32_t>(_mm_movemask_epi8(eq))};
  }
  [[nodiscard]] ProbeMask<0> empty_mask() const noexcept {
    return {static_cast<std::uint32_t>(_mm_movemask_epi8(ctrl_))};
  }
  [[nodiscard]] bool has_empty() const noexcept { return _mm_movemask_epi8(ctrl_) != 0; }

 private:
  __m128i ctrl_;
};
#endif

#if defined(__SSE2__)
using DefaultGroup = GroupSse2;
#else
using DefaultGroup = GroupSwar;
#endif

/// Shared (across all container instantiations) rehash counter and
/// sampled probe-length histogram. Registration happens lazily on the
/// first record call, so merely including this header registers
/// nothing.
struct ProbeStats {
  metrics::Counter rehashes{"util.flatmap.rehashes"};
  metrics::Histogram probe_groups{"util.flatmap.probe_groups"};
};
[[nodiscard]] inline const ProbeStats& probe_stats() {
  static ProbeStats s;
  return s;
}
/// Sampled 1-in-64: the probe path runs several times per record, so
/// even the gated histogram observe would be measurable at full rate.
inline void note_probe(std::size_t groups) noexcept {
  if (!metrics::enabled()) return;
  thread_local std::uint32_t tick = 0;
  if ((++tick & 63u) == 0) probe_stats().probe_groups.observe(groups);
}
inline void note_rehash() noexcept {
  if (metrics::enabled()) probe_stats().rehashes.add();
}

/// A map slot. Not std::pair, which is not trivially copyable: slots
/// move by plain assignment and whole tables copy with one memcpy.
template <typename K, typename V>
struct KeyValue {
  K first;
  V second;
};

/// Key projections: a set slot is its key; a map slot keys by `first`.
struct SlotIsKey {
  template <typename K>
  [[nodiscard]] const K& operator()(const K& slot) const noexcept {
    return slot;
  }
};
struct SlotFirstIsKey {
  template <typename Slot>
  [[nodiscard]] const auto& operator()(const Slot& slot) const noexcept {
    return slot.first;
  }
};

/// The one open-addressing table under FlatMap and FlatSet. It owns the
/// control bytes and their mirror tail, group probing, growth at 3/4
/// load, backward-shift erase, pool-backed storage and slot-order
/// iteration; the front ends only say what a slot holds. Slot placement
/// does not depend on the group width — the first empty slot or the
/// matching key on a probe path is the same for 8- and 16-byte groups —
/// so every Group lays a table out identically.
template <typename K, typename Slot, typename KeyOf, typename Hash, typename Group>
class FlatTable {
  static_assert(std::is_trivially_copyable_v<Slot>, "flat table slots are managed as raw storage");

 public:
  FlatTable() = default;
  /// Pool-backed: slot arrays come from / return to `pool` (which must
  /// outlive this container).
  explicit FlatTable(SlabPool* pool) noexcept : pool_(pool) {}

  FlatTable(const FlatTable& o) : pool_(o.pool_) {
    if (o.cap_ == 0) return;
    adopt_block(alloc_raw(o.cap_), o.cap_);
    size_ = o.size_;
    std::memcpy(slots_, o.slots_, block_bytes(cap_));
  }
  FlatTable(FlatTable&& o) noexcept { steal(o); }
  FlatTable& operator=(const FlatTable& o) {
    if (this != &o) {
      FlatTable copy(o);
      free_block();
      steal(copy);
    }
    return *this;
  }
  FlatTable& operator=(FlatTable&& o) noexcept {
    if (this != &o) {
      free_block();
      steal(o);
    }
    return *this;
  }
  ~FlatTable() { free_block(); }

  /// Remove `key`; returns whether it was present. Backward-shift
  /// deletion: elements probing past the hole are slid back into it
  /// (slot and control byte together), so chains stay dense and
  /// lookups never need tombstones.
  bool erase(const K& key) noexcept { return erase_hashed(key, Hash{}(key)); }

  /// erase() with a precomputed hash (must equal Hash{}(key)).
  bool erase_hashed(const K& key, std::size_t h) noexcept {
    if (cap_ == 0) return false;
    const Locate loc = locate(key, h);
    if (!loc.found) return false;
    const std::size_t mask = cap_ - 1;
    std::size_t idx = loc.idx;
    std::size_t j = idx;
    for (;;) {
      j = (j + 1) & mask;
      if (ctrl_[j] & kCtrlEmpty) break;
      // The element at j may fill the hole at idx only if its home
      // slot is cyclically at-or-before idx on the probe path to j —
      // moving it earlier than its home would hide it from lookups.
      const std::size_t home = Hash{}(KeyOf{}(slots_[j])) & mask;
      if (((j - home) & mask) >= ((j - idx) & mask)) {
        slots_[idx] = slots_[j];
        set_ctrl(idx, ctrl_[j]);
        idx = j;
      }
    }
    set_ctrl(idx, kCtrlEmpty);
    --size_;
    return true;
  }

  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }
  /// Slot-array length (diagnostics; load factor is size/capacity).
  [[nodiscard]] std::size_t capacity() const noexcept { return cap_; }

  /// Drop all entries and release the slot storage (to the pool when
  /// pool-backed). Use reset() when the container will be refilled.
  void clear() noexcept {
    free_block();
    size_ = 0;
  }

  /// Drop all entries but keep the slot array: a reused container
  /// starts at its previous capacity instead of re-growing from the
  /// minimum.
  void reset() noexcept {
    if (slots_) std::memset(ctrl_, kCtrlEmpty, ctrl_bytes(cap_));
    size_ = 0;
  }

  /// Ensure `n` entries fit without any further slot-array growth.
  void reserve(std::size_t n) {
    std::size_t cap = kMinCap;
    while (cap * 3 < n * 4) cap *= 2;  // inverse of the insert-time growth check
    if (cap > cap_) rehash_to(cap);
  }

  /// Hint the key's home group into cache ahead of a lookup/insert.
  /// Read-only and never required for correctness; batch consumers
  /// issue it a few records ahead to hide the probe's cache misses.
  void prefetch(const K& key) const noexcept { prefetch_hash(Hash{}(key)); }
  void prefetch_hash(std::size_t h) const noexcept {
#if defined(__GNUC__) || defined(__clang__)
    if (cap_ != 0) {
      const std::size_t idx = h & (cap_ - 1);
      __builtin_prefetch(ctrl_ + idx);
      __builtin_prefetch(slots_ + idx);
    }
#else
    (void)h;
#endif
  }

 protected:
  /// The slot holding `key`, or null.
  [[nodiscard]] Slot* find_slot(const K& key, std::size_t h) const noexcept {
    if (cap_ == 0) return nullptr;
    const Locate loc = locate(key, h);
    return loc.found ? &slots_[loc.idx] : nullptr;
  }

  struct Claim {
    Slot* slot;
    bool fresh;  ///< the key was absent: the caller fills the slot
  };
  /// The slot holding `key`, claiming the first empty one on its probe
  /// path (growing first at 3/4 load) when the key is absent.
  [[nodiscard]] Claim claim(const K& key, std::size_t h) {
    if (cap_ == 0 || (size_ + 1) * 4 > cap_ * 3) rehash_to(cap_ ? cap_ * 2 : kMinCap);
    const Locate loc = locate(key, h);
    if (!loc.found) {
      set_ctrl(loc.idx, ctrl_tag(h));
      ++size_;
    }
    return {&slots_[loc.idx], !loc.found};
  }

  /// Visit every full slot in slot order.
  template <typename Fn>
  void for_each_slot(Fn&& fn) const {
    for (std::size_t i = 0; i < cap_; ++i)
      if (!(ctrl_[i] & kCtrlEmpty)) fn(slots_[i]);
  }

 private:
  static constexpr std::size_t kMinCap = 16;
  static_assert(kMinCap >= Group::kWidth && kMinCap % Group::kWidth == 0,
                "group loads at stride kWidth must tile the table");

  struct Locate {
    std::size_t idx;  ///< the key's slot, or the first empty one on its path
    bool found;
  };

  /// Control bytes: one per slot plus a mirrored tail of kWidth-1
  /// bytes so an unaligned group load starting near the end never
  /// reads past the array (set_ctrl keeps the mirror in sync).
  [[nodiscard]] static constexpr std::size_t ctrl_bytes(std::size_t cap) noexcept {
    return cap + Group::kWidth - 1;
  }
  /// Slots and control bytes live in one allocation so pool recycling
  /// and copies handle both with a single acquire/release/memcpy.
  [[nodiscard]] static constexpr std::size_t block_bytes(std::size_t cap) noexcept {
    return cap * sizeof(Slot) + ctrl_bytes(cap);
  }

  [[nodiscard]] Locate locate(const K& key, std::size_t h) const noexcept {
    const std::size_t mask = cap_ - 1;
    const std::uint8_t tag = ctrl_tag(h);
    std::size_t idx = h & mask;
    std::size_t groups = 1;
    for (;;) {
      const Group g(ctrl_ + idx);
      for (auto m = g.match(tag); m.any(); m.advance()) {
        const std::size_t p = (idx + m.offset()) & mask;
        if (KeyOf{}(slots_[p]) == key) {
          note_probe(groups);
          return {p, true};
        }
      }
      // A present key's probe chain from its home slot never crosses
      // an empty slot (insert fills the first empty; backward-shift
      // erase preserves this), so an empty anywhere in the group ends
      // the search, and the first one is where the key would go.
      const auto e = g.empty_mask();
      if (e.any()) {
        note_probe(groups);
        return {(idx + e.offset()) & mask, false};
      }
      idx = (idx + Group::kWidth) & mask;
      ++groups;
    }
  }

  void set_ctrl(std::size_t i, std::uint8_t v) noexcept {
    ctrl_[i] = v;
    if (i < Group::kWidth - 1) ctrl_[cap_ + i] = v;
  }

  [[nodiscard]] Slot* alloc_raw(std::size_t cap) {
    void* p = pool_ ? pool_->acquire(block_bytes(cap)) : ::operator new(block_bytes(cap));
    return static_cast<Slot*>(p);
  }

  void adopt_block(Slot* block, std::size_t cap) noexcept {
    slots_ = block;
    ctrl_ = reinterpret_cast<std::uint8_t*>(block + cap);
    cap_ = cap;
  }

  void release(Slot* block, std::size_t cap) noexcept {
    if (pool_)
      pool_->release(block, block_bytes(cap));
    else
      ::operator delete(block);
  }

  void free_block() noexcept {
    if (!slots_) return;
    release(slots_, cap_);
    slots_ = nullptr;
    ctrl_ = nullptr;
    cap_ = 0;
  }

  /// Move every entry into a fresh `new_cap` block, in old slot order,
  /// each into the first empty slot on its probe path.
  void rehash_to(std::size_t new_cap) {
    Slot* old_slots = slots_;
    const std::uint8_t* old_ctrl = ctrl_;
    const std::size_t old_cap = cap_;
    adopt_block(alloc_raw(new_cap), new_cap);
    std::memset(ctrl_, kCtrlEmpty, ctrl_bytes(new_cap));
    const std::size_t mask = new_cap - 1;
    for (std::size_t i = 0; i < old_cap; ++i) {
      if (old_ctrl[i] & kCtrlEmpty) continue;
      const std::size_t h = Hash{}(KeyOf{}(old_slots[i]));
      std::size_t idx = h & mask;
      for (;;) {
        const auto e = Group(ctrl_ + idx).empty_mask();
        if (e.any()) {
          idx = (idx + e.offset()) & mask;
          break;
        }
        idx = (idx + Group::kWidth) & mask;
      }
      set_ctrl(idx, ctrl_tag(h));
      slots_[idx] = old_slots[i];
    }
    if (old_slots) {
      release(old_slots, old_cap);
      note_rehash();
    }
  }

  void steal(FlatTable& o) noexcept {
    slots_ = std::exchange(o.slots_, nullptr);
    ctrl_ = std::exchange(o.ctrl_, nullptr);
    cap_ = std::exchange(o.cap_, 0);
    size_ = std::exchange(o.size_, 0);
    pool_ = o.pool_;
  }

  Slot* slots_ = nullptr;
  std::uint8_t* ctrl_ = nullptr;
  std::size_t cap_ = 0;
  std::size_t size_ = 0;
  SlabPool* pool_ = nullptr;
};

}  // namespace detail

template <typename K, typename V, typename Hash = std::hash<K>,
          typename Group = detail::DefaultGroup>
class FlatMap
    : private detail::FlatTable<K, detail::KeyValue<K, V>, detail::SlotFirstIsKey, Hash, Group> {
  using Table = detail::FlatTable<K, detail::KeyValue<K, V>, detail::SlotFirstIsKey, Hash, Group>;

 public:
  using Table::Table;
  using Table::size, Table::empty, Table::capacity, Table::clear, Table::reset, Table::reserve,
      Table::prefetch, Table::prefetch_hash, Table::erase, Table::erase_hashed;

  /// Returns a reference to the value for `key`, default-constructing
  /// it on first access (like operator[]).
  V& operator[](const K& key) { return insert_hashed(key, Hash{}(key)); }

  /// operator[] with a precomputed hash (must equal Hash{}(key)).
  V& insert_hashed(const K& key, std::size_t h) {
    const auto c = this->claim(key, h);
    if (c.fresh) *c.slot = {key, V{}};
    return c.slot->second;
  }

  [[nodiscard]] const V* find(const K& key) const noexcept {
    return find_hashed(key, Hash{}(key));
  }
  [[nodiscard]] V* find(const K& key) noexcept { return find_hashed(key, Hash{}(key)); }

  /// find() with a precomputed hash (must equal Hash{}(key)).
  [[nodiscard]] const V* find_hashed(const K& key, std::size_t h) const noexcept {
    const auto* s = this->find_slot(key, h);
    return s ? &s->second : nullptr;
  }
  [[nodiscard]] V* find_hashed(const K& key, std::size_t h) noexcept {
    auto* s = this->find_slot(key, h);
    return s ? &s->second : nullptr;
  }

  /// Visit all (key, value) pairs in slot order.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    this->for_each_slot([&](const detail::KeyValue<K, V>& s) { fn(s.first, s.second); });
  }
};

template <typename K, typename Hash = std::hash<K>, typename Group = detail::DefaultGroup>
class FlatSet : private detail::FlatTable<K, K, detail::SlotIsKey, Hash, Group> {
  using Table = detail::FlatTable<K, K, detail::SlotIsKey, Hash, Group>;

 public:
  using Table::Table;
  using Table::size, Table::empty, Table::capacity, Table::clear, Table::reset, Table::reserve,
      Table::prefetch, Table::prefetch_hash;

  /// Returns true if the key was newly inserted.
  bool insert(const K& key) { return insert_hashed(key, Hash{}(key)); }

  /// insert() with a precomputed hash (must equal Hash{}(key)).
  bool insert_hashed(const K& key, std::size_t h) {
    const auto c = this->claim(key, h);
    if (c.fresh) *c.slot = key;
    return c.fresh;
  }

  [[nodiscard]] bool contains(const K& key) const noexcept {
    return contains_hashed(key, Hash{}(key));
  }
  /// contains() with a precomputed hash (must equal Hash{}(key)).
  [[nodiscard]] bool contains_hashed(const K& key, std::size_t h) const noexcept {
    return this->find_slot(key, h) != nullptr;
  }

  /// Visit all keys in slot order.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    this->for_each_slot(fn);
  }
};

/// Avalanching hash for small integer keys (std::hash is identity for
/// integers in libstdc++, which is fatal for linear probing).
struct IntHash {
  [[nodiscard]] std::size_t operator()(std::uint64_t v) const noexcept {
    v = (v ^ (v >> 30)) * 0xbf58476d1ce4e5b9ULL;
    v = (v ^ (v >> 27)) * 0x94d049bb133111ebULL;
    return static_cast<std::size_t>(v ^ (v >> 31));
  }
};

}  // namespace v6sonar::util
