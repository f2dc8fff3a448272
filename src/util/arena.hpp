// Size-class slab pool for short-lived hot-path containers.
//
// The scan detector creates and destroys one FlatSet + two FlatMaps
// per tracked source, and the artifact filter one FlatMap per
// (source, day) — at telescope scale that is millions of small slot
// arrays churning through the global allocator. The pool keeps freed
// slot arrays on per-size-class freelists so a source expiring hands
// its storage straight to the next source appearing, without touching
// malloc.
//
// Fresh blocks are carved from mmap'd chunks rather than allocated
// individually: chunks double from 64 KiB up to 2 MiB, and chunks of
// a full 2 MiB are MADV_HUGEPAGE-advised. Packing the detector's slot
// arrays into huge pages matters as much as recycling them — at
// tens of MB of per-source tables, random probes otherwise miss the
// TLB on nearly every record.
//
// Single-threaded by design: every detector / pipeline shard owns a
// private pool (the sharded pipeline's workers share nothing), so no
// synchronization is needed or provided. Blocks are raw storage —
// callers construct/destroy their own objects in them; the pool only
// recycles bytes. All storage is returned to the system when the pool
// is destroyed, so the pool must outlive every container it backs.
//
// Block contents are opaque: the flat containers co-allocate their
// slot array and its probe-control byte array (plus mirror tail) in
// ONE block, so acquire/release see a single composite byte count.
// Callers must release with exactly the byte count they acquired —
// the pool recomputes the size class from it. Blocks are aligned to
// their size class (>= 64 bytes), which covers any slot alignment.
#pragma once

#include <sys/mman.h>

#include <array>
#include <cstddef>
#include <cstdint>
#include <new>
#include <utility>
#include <vector>

namespace v6sonar::util {

class SlabPool {
 public:
  SlabPool() = default;
  ~SlabPool() {
    for (const auto& [base, len] : chunks_) ::munmap(base, len);
  }
  SlabPool(const SlabPool&) = delete;
  SlabPool& operator=(const SlabPool&) = delete;

  /// A block of at least `bytes` (rounded up to a power of two, 64 B
  /// minimum), recycled from the freelist when one is available.
  [[nodiscard]] void* acquire(std::size_t bytes) {
    const std::size_t c = class_of(bytes);
    if (c > kMaxCarveClass) {  // bigger than a chunk: pass through
      ++fresh_;
      return ::operator new(bytes);
    }
    auto& list = free_[c];
    if (!list.empty()) {
      void* p = list.back();
      list.pop_back();
      ++recycled_;
      return p;
    }
    ++fresh_;
    return carve(std::size_t{1} << c);
  }

  /// Return a block obtained from acquire(bytes) with the same size.
  /// Carved bytes stay owned by the pool's chunks; release only files
  /// the block on its freelist. Oversize pass-through blocks go back
  /// to the system immediately.
  void release(void* p, std::size_t bytes) noexcept {
    const std::size_t c = class_of(bytes);
    if (c > kMaxCarveClass) {
      ::operator delete(p);
      return;
    }
    try {
      free_[c].push_back(p);
    } catch (...) {
      // Freelist growth failed; the chunk still owns the bytes, so the
      // block is merely lost to reuse until the pool dies.
    }
  }

  /// Blocks newly carved from chunk storage (diagnostics / ablation).
  [[nodiscard]] std::uint64_t fresh_blocks() const noexcept { return fresh_; }
  /// Blocks served from a freelist — the allocator traffic avoided.
  [[nodiscard]] std::uint64_t recycled_blocks() const noexcept { return recycled_; }

 private:
  static constexpr std::size_t kMaxCarveClass = 20;  // 1 MiB: half the max chunk
  static constexpr std::size_t kClasses = kMaxCarveClass + 1;
  static constexpr std::size_t kMinChunk = std::size_t{1} << 16;  // 64 KiB
  static constexpr std::size_t kMaxChunk = std::size_t{1} << 21;  // 2 MiB

  [[nodiscard]] static std::size_t class_of(std::size_t bytes) noexcept {
    std::size_t c = 6;  // 64-byte minimum keeps tiny arrays off distinct lists
    while ((std::size_t{1} << c) < bytes) ++c;
    return c;
  }

  /// Bump-allocate from the open chunk; sizes are powers of two and
  /// chunks are size-aligned, so every block is naturally aligned.
  [[nodiscard]] void* carve(std::size_t block) {
    if (chunk_off_ + block > chunk_len_) new_chunk(block);
    void* p = static_cast<std::byte*>(chunk_base_) + chunk_off_;
    chunk_off_ += block;
    return p;
  }

  void new_chunk(std::size_t at_least) {
    std::size_t len = chunks_.empty() ? kMinChunk : next_chunk_;
    while (len < at_least) len *= 2;
    // Over-map so the chunk can be aligned to its own size — required
    // both for natural block alignment and for the kernel to back a
    // 2 MiB chunk with one huge page.
    const std::size_t span = len * 2;
    void* raw = ::mmap(nullptr, span, PROT_READ | PROT_WRITE,
                       MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (raw == MAP_FAILED) throw std::bad_alloc{};
    const auto addr = reinterpret_cast<std::uintptr_t>(raw);
    const std::uintptr_t aligned = (addr + len - 1) & ~(static_cast<std::uintptr_t>(len) - 1);
    if (aligned > addr) ::munmap(raw, aligned - addr);
    const std::uintptr_t tail = aligned + len;
    if (addr + span > tail) ::munmap(reinterpret_cast<void*>(tail), addr + span - tail);
    void* base = reinterpret_cast<void*>(aligned);
    if (len >= kMaxChunk) ::madvise(base, len, MADV_HUGEPAGE);
    chunks_.emplace_back(base, len);
    chunk_base_ = base;
    chunk_len_ = len;
    chunk_off_ = 0;
    if (next_chunk_ < kMaxChunk) next_chunk_ = len * 2;
  }

  std::array<std::vector<void*>, kClasses> free_{};
  std::vector<std::pair<void*, std::size_t>> chunks_;
  void* chunk_base_ = nullptr;
  std::size_t chunk_len_ = 0;
  std::size_t chunk_off_ = 0;
  std::size_t next_chunk_ = kMinChunk;
  std::uint64_t fresh_ = 0;
  std::uint64_t recycled_ = 0;
};

}  // namespace v6sonar::util
