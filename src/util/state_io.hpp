// In-memory serialization buffers for the state-lifecycle seam.
//
// StateWriter appends little-endian primitives (and raw POD images —
// host == file layout on all supported targets, the same convention
// event_io.cpp and log_io.cpp already commit to) through a cursor into
// a growable byte buffer (on little-endian hosts each fixed-width field
// is one bounds compare and one memcpy); StateReader walks one back
// with a bounds check on every read, so a truncated or corrupt
// checkpoint section surfaces as a clean std::runtime_error, never as
// an out-of-bounds read. The checkpoint container (core/state_codec.hpp)
// frames these buffers into named, CRC-guarded file sections.
//
// The flat-container helpers serialize util::FlatMap / util::FlatSet
// contents count-prefixed in iteration order. Iteration order follows
// the table's insert history, not its contents, so only states built
// by the same inserts save to the same bytes — what load_flat()
// reconstructs is the *contents*, and every consumer of those
// containers is order-independent (sorts at finalize, or folds
// commutatively), which is the invariant the resume-equivalence tests
// pin down. No element image carries padding (see save_elem), so two
// saves of one state are always byte-identical.
#pragma once

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <new>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>

#include "util/flat_hash.hpp"

namespace v6sonar::util {

class StateWriter {
 public:
  StateWriter() = default;
  StateWriter(StateWriter&& o) noexcept
      : buf_(std::move(o.buf_)),
        cur_(std::exchange(o.cur_, nullptr)),
        end_(std::exchange(o.end_, nullptr)) {}
  StateWriter& operator=(StateWriter&& o) noexcept {
    buf_ = std::move(o.buf_);
    cur_ = std::exchange(o.cur_, nullptr);
    end_ = std::exchange(o.end_, nullptr);
    return *this;
  }

  void u8(std::uint8_t v) { put(&v, 1); }
  void u16(std::uint16_t v) { le(v); }
  void u32(std::uint32_t v) { le(v); }
  void u64(std::uint64_t v) { le(v); }
  void i32(std::int32_t v) { le(static_cast<std::uint32_t>(v)); }
  void i64(std::int64_t v) { le(static_cast<std::uint64_t>(v)); }
  void f64(double v) { le(std::bit_cast<std::uint64_t>(v)); }

  void str(std::string_view s) {
    u32(static_cast<std::uint32_t>(s.size()));
    raw(s.data(), s.size());
  }

  /// Raw in-memory image of a trivially copyable value (host layout).
  /// Padding bytes hold whatever memory held, so a type with padding
  /// is refused: write its fields instead.
  template <typename T>
  void pod(const T& v) {
    static_assert(std::is_trivially_copyable_v<T>, "pod() needs a trivially copyable type");
    static_assert(std::has_unique_object_representations_v<T>,
                  "pod() would write padding bytes; write the fields");
    put(&v, sizeof v);
  }

  void raw(const void* data, std::size_t len) {
    if (len != 0) put(data, len);
  }

  [[nodiscard]] std::span<const std::uint8_t> bytes() const noexcept {
    return {buf_.get(), size()};
  }
  [[nodiscard]] std::size_t size() const noexcept {
    return static_cast<std::size_t>(cur_ - buf_.get());
  }

 private:
  struct FreeDeleter {
    void operator()(std::uint8_t* p) const noexcept { std::free(p); }
  };

  /// Append `len` (> 0) bytes at the cursor: one bounds compare and one
  /// memcpy, which folds to a single store for the fixed-width fields.
  void put(const void* data, std::size_t len) {
    if (static_cast<std::size_t>(end_ - cur_) < len) grow(len);
    std::memcpy(cur_, data, len);
    cur_ += len;
  }

  template <typename T>
  void le(T v) {
    if constexpr (std::endian::native == std::endian::little) {
      put(&v, sizeof v);
    } else {
      std::uint8_t b[sizeof(T)];
      for (std::size_t i = 0; i < sizeof(T); ++i)
        b[i] = static_cast<std::uint8_t>(v >> (8 * i));
      put(b, sizeof b);
    }
  }

  /// Geometric growth through realloc: large blocks move by remapping
  /// pages rather than copying, and new capacity is never zero-filled,
  /// so no page past the written bytes is touched.
  void grow(std::size_t len) {
    const std::size_t used = size();
    const auto capacity = static_cast<std::size_t>(end_ - buf_.get());
    const std::size_t cap = std::max({used + len, 2 * capacity, std::size_t{256}});
    auto* p = static_cast<std::uint8_t*>(std::realloc(buf_.get(), cap));
    if (p == nullptr) throw std::bad_alloc();
    (void)buf_.release();
    buf_.reset(p);
    cur_ = p + used;
    end_ = p + cap;
  }

  std::unique_ptr<std::uint8_t[], FreeDeleter> buf_;
  std::uint8_t* cur_ = nullptr;
  std::uint8_t* end_ = nullptr;
};

class StateReader {
 public:
  StateReader(const void* data, std::size_t len) noexcept
      : p_(static_cast<const std::uint8_t*>(data)), len_(len) {}
  explicit StateReader(std::span<const std::uint8_t> buf) noexcept
      : StateReader(buf.data(), buf.size()) {}

  [[nodiscard]] std::uint8_t u8() {
    need(1);
    return p_[pos_++];
  }
  [[nodiscard]] std::uint16_t u16() { return le<std::uint16_t>(); }
  [[nodiscard]] std::uint32_t u32() { return le<std::uint32_t>(); }
  [[nodiscard]] std::uint64_t u64() { return le<std::uint64_t>(); }
  [[nodiscard]] std::int32_t i32() { return static_cast<std::int32_t>(le<std::uint32_t>()); }
  [[nodiscard]] std::int64_t i64() { return static_cast<std::int64_t>(le<std::uint64_t>()); }
  [[nodiscard]] double f64() {
    const std::uint64_t bits = le<std::uint64_t>();
    double v;
    std::memcpy(&v, &bits, sizeof v);
    return v;
  }

  [[nodiscard]] std::string str() {
    const std::uint32_t n = u32();
    need(n);
    std::string s(reinterpret_cast<const char*>(p_ + pos_), n);
    pos_ += n;
    return s;
  }

  template <typename T>
  [[nodiscard]] T pod() {
    static_assert(std::is_trivially_copyable_v<T>, "pod() needs a trivially copyable type");
    need(sizeof(T));
    T v;
    std::memcpy(&v, p_ + pos_, sizeof v);
    pos_ += sizeof(T);
    return v;
  }

  void raw(void* out, std::size_t len) {
    need(len);
    std::memcpy(out, p_ + pos_, len);
    pos_ += len;
  }

  void skip(std::size_t len) {
    need(len);
    pos_ += len;
  }

  /// A count that is about to drive `count * elem_bytes` reads. Caps
  /// the value against the bytes actually remaining so a corrupt count
  /// throws here instead of driving a multi-gigabyte reserve().
  [[nodiscard]] std::uint64_t count(std::size_t elem_bytes) {
    const std::uint64_t n = u64();
    if (elem_bytes != 0 && n > remaining() / elem_bytes)
      throw std::runtime_error("state: element count exceeds section size");
    return n;
  }

  [[nodiscard]] std::size_t remaining() const noexcept { return len_ - pos_; }
  [[nodiscard]] bool at_end() const noexcept { return pos_ == len_; }

  /// Throw unless the whole section was consumed — a length mismatch
  /// means the payload does not match the schema the code expects.
  void expect_end() const {
    if (!at_end()) throw std::runtime_error("state: trailing bytes in section");
  }

 private:
  void need(std::size_t n) const {
    if (n > len_ - pos_) throw std::runtime_error("state: truncated section");
  }

  template <typename T>
  [[nodiscard]] T le() {
    need(sizeof(T));
    T v = 0;
    for (std::size_t i = 0; i < sizeof(T); ++i)
      v = static_cast<T>(v | (static_cast<T>(p_[pos_ + i]) << (8 * i)));
    pos_ += sizeof(T);
    return v;
  }

  const std::uint8_t* p_;
  std::size_t len_;
  std::size_t pos_ = 0;
};

/// One key or value of a flat-container dump: the raw image of a type
/// without padding. A type with padding supplies its own save_elem and
/// load_elem, found by argument-dependent lookup, that write the same
/// image field by field with zero bytes for the padding — the sizes
/// load_flat() checks counts against stay sizeof(K) + sizeof(V), and a
/// dump never carries uninitialized memory.
template <typename T>
void save_elem(StateWriter& w, const T& v) {
  w.pod(v);
}

template <typename T>
void load_elem(StateReader& r, T& v) {
  v = r.pod<T>();
}

/// Flat-container content dumps: count-prefixed (key, value) images in
/// iteration order. The load side inserts through the normal hashing
/// path, so the reconstructed table is a valid (possibly differently
/// laid out) table with identical contents.
template <typename K, typename V, typename H, typename G>
void save_flat(StateWriter& w, const FlatMap<K, V, H, G>& m) {
  w.u64(m.size());
  m.for_each([&](const K& k, const V& v) {
    save_elem(w, k);
    save_elem(w, v);
  });
}

template <typename K, typename V, typename H, typename G>
void load_flat(StateReader& r, FlatMap<K, V, H, G>& m) {
  const std::uint64_t n = r.count(sizeof(K) + sizeof(V));
  m.reserve(static_cast<std::size_t>(n));
  for (std::uint64_t i = 0; i < n; ++i) {
    K k;
    load_elem(r, k);
    load_elem(r, m[k]);
  }
}

template <typename K, typename H, typename G>
void save_flat(StateWriter& w, const FlatSet<K, H, G>& s) {
  w.u64(s.size());
  s.for_each([&](const K& k) { save_elem(w, k); });
}

template <typename K, typename H, typename G>
void load_flat(StateReader& r, FlatSet<K, H, G>& s) {
  const std::uint64_t n = r.count(sizeof(K));
  s.reserve(static_cast<std::size_t>(n));
  for (std::uint64_t i = 0; i < n; ++i) {
    K k;
    load_elem(r, k);
    s.insert(k);
  }
}

}  // namespace v6sonar::util
