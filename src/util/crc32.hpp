// CRC-32 (ISO-HDLC polynomial, the zlib/PNG variant) over byte spans.
//
// The checkpoint container stores one CRC per section so a torn or
// bit-flipped file is rejected at load instead of silently thawing
// corrupt analyzer state. Every byte of a checkpoint passes through
// here twice (seal at save, verify at load), so the checksum is a real
// share of a checkpoint's cost. Two kernels compute the same values:
//
//   crc32_slice8  portable slice-by-8: eight 256-entry tables built at
//                 compile time, eight bytes folded per step, identical
//                 values on any host byte order.
//   crc32         the dispatched entry point. On x86-64 hosts with
//                 PCLMULQDQ (checked once at run time) it folds spans
//                 of 64 bytes or more with carry-less multiplies — four
//                 128-bit lanes, then one lane, then a Barrett
//                 reduction to 32 bits (Gopal et al., "Fast CRC
//                 Computation for Generic Polynomials Using PCLMULQDQ
//                 Instruction", Intel 2009) — and finishes the last
//                 0-15 bytes with slice-by-8. Elsewhere it is
//                 slice-by-8.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>

namespace v6sonar::util {

namespace detail {

using Crc32Tables = std::array<std::array<std::uint32_t, 256>, 8>;

/// t[0] is the classic reflected byte table; t[k][i] is the CRC of
/// byte i followed by k zero bytes, so eight lookups advance eight bytes.
consteval Crc32Tables make_crc32_tables() {
  Crc32Tables t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) c = (c >> 1) ^ ((c & 1) ? 0xEDB88320u : 0);
    t[0][i] = c;
  }
  for (std::size_t k = 1; k < 8; ++k)
    for (std::uint32_t i = 0; i < 256; ++i)
      t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFFu];
  return t;
}

inline constexpr Crc32Tables kCrc32Tables = make_crc32_tables();

/// Little-endian 32-bit load; compilers fold it to one load on LE hosts.
[[nodiscard]] inline std::uint32_t load_le32(const std::uint8_t* p) noexcept {
  return static_cast<std::uint32_t>(p[0]) | static_cast<std::uint32_t>(p[1]) << 8 |
         static_cast<std::uint32_t>(p[2]) << 16 | static_cast<std::uint32_t>(p[3]) << 24;
}

}  // namespace detail

/// The portable kernel, same contract as crc32(): pass the previous
/// return value as `seed` to extend a running checksum (seed 0 starts
/// a fresh one).
[[nodiscard]] inline std::uint32_t crc32_slice8(const void* data, std::size_t len,
                                                std::uint32_t seed = 0) noexcept {
  const auto& t = detail::kCrc32Tables;
  const auto* p = static_cast<const std::uint8_t*>(data);
  std::uint32_t c = seed ^ 0xFFFFFFFFu;
  for (; len >= 8; p += 8, len -= 8) {
    const std::uint32_t lo = c ^ detail::load_le32(p);
    const std::uint32_t hi = detail::load_le32(p + 4);
    c = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^ t[5][(lo >> 16) & 0xFFu] ^ t[4][lo >> 24] ^
        t[3][hi & 0xFFu] ^ t[2][(hi >> 8) & 0xFFu] ^ t[1][(hi >> 16) & 0xFFu] ^ t[0][hi >> 24];
  }
  for (; len > 0; ++p, --len) c = t[0][(c ^ *p) & 0xFFu] ^ (c >> 8);
  return c ^ 0xFFFFFFFFu;
}

/// Incremental form: pass the previous return value as `seed` to
/// extend a running checksum (seed 0 starts a fresh one). Dispatches to
/// the carry-less-multiply kernel where the CPU has one.
[[nodiscard]] std::uint32_t crc32(const void* data, std::size_t len,
                                  std::uint32_t seed = 0) noexcept;

}  // namespace v6sonar::util
