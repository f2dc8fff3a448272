#include "util/crc32.hpp"

#if defined(__x86_64__) && defined(__GNUC__)
#include <immintrin.h>
#define V6SONAR_CRC32_PCLMUL 1
#endif

namespace v6sonar::util {

namespace {

#ifdef V6SONAR_CRC32_PCLMUL

/// Folding constants for the reflected polynomial P = 0x104C11DB7,
/// each x^k mod P bit-reflected and shifted left by one (the layout of
/// the Intel paper and of Linux's crc32-pclmul): k = 4*128+32 and
/// 4*128-32 fold a lane 512 bits ahead, 128+32 and 128-32 fold it 128
/// bits ahead, and 64 folds the last 64 bits onto 32. The Barrett pair
/// is mu = floor(x^64 / P) and P itself, both reflected over 33 bits.
constexpr long long kFold4Lo = 0x154442bd4, kFold4Hi = 0x1c6e41596;
constexpr long long kFold1Lo = 0x1751997d0, kFold1Hi = 0x0ccaa009e;
constexpr long long kFold64 = 0x163cd6124;
constexpr long long kPoly = 0x1db710641, kMu = 0x1f7011641;

/// x * (k.lo, k.hi): the 128-bit lane carried 128 (or 512) bits ahead.
__attribute__((target("pclmul,sse2"))) inline __m128i fold(__m128i x, __m128i k) {
  return _mm_xor_si128(_mm_clmulepi64_si128(x, k, 0x00), _mm_clmulepi64_si128(x, k, 0x11));
}

/// Advance the raw (pre-inverted) CRC register `c` over `len` bytes;
/// `len` is at least 64 and a multiple of 16.
__attribute__((target("pclmul,sse2"))) std::uint32_t fold_pclmul(const std::uint8_t* p,
                                                                 std::size_t len,
                                                                 std::uint32_t c) {
  const auto load = [](const std::uint8_t* q) {
    return _mm_loadu_si128(reinterpret_cast<const __m128i*>(q));
  };
  __m128i x0 = _mm_xor_si128(load(p), _mm_cvtsi32_si128(static_cast<int>(c)));
  __m128i x1 = load(p + 16), x2 = load(p + 32), x3 = load(p + 48);
  p += 64;
  len -= 64;

  const __m128i k4 = _mm_set_epi64x(kFold4Hi, kFold4Lo);
  for (; len >= 64; p += 64, len -= 64) {
    x0 = _mm_xor_si128(fold(x0, k4), load(p));
    x1 = _mm_xor_si128(fold(x1, k4), load(p + 16));
    x2 = _mm_xor_si128(fold(x2, k4), load(p + 32));
    x3 = _mm_xor_si128(fold(x3, k4), load(p + 48));
  }

  const __m128i k1 = _mm_set_epi64x(kFold1Hi, kFold1Lo);
  __m128i x = _mm_xor_si128(fold(x0, k1), x1);
  x = _mm_xor_si128(fold(x, k1), x2);
  x = _mm_xor_si128(fold(x, k1), x3);
  for (; len >= 16; p += 16, len -= 16) x = _mm_xor_si128(fold(x, k1), load(p));

  // 128 -> 64 bits (appending the 32 zero bits a CRC implies), then
  // 64 -> 32 bits, then the Barrett reduction by P.
  const __m128i mask32 = _mm_set_epi32(0, 0, 0, -1);
  x = _mm_xor_si128(_mm_clmulepi64_si128(x, k1, 0x10), _mm_srli_si128(x, 8));
  x = _mm_xor_si128(
      _mm_clmulepi64_si128(_mm_and_si128(x, mask32), _mm_set_epi64x(0, kFold64), 0x00),
      _mm_srli_si128(x, 4));
  const __m128i barrett = _mm_set_epi64x(kMu, kPoly);
  __m128i t = _mm_clmulepi64_si128(_mm_and_si128(x, mask32), barrett, 0x10);
  t = _mm_clmulepi64_si128(_mm_and_si128(t, mask32), barrett, 0x00);
  return static_cast<std::uint32_t>(_mm_cvtsi128_si32(_mm_srli_si128(_mm_xor_si128(t, x), 4)));
}

bool has_pclmul() noexcept {
  static const bool yes = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("pclmul") != 0;
  }();
  return yes;
}

#endif

}  // namespace

std::uint32_t crc32(const void* data, std::size_t len, std::uint32_t seed) noexcept {
#ifdef V6SONAR_CRC32_PCLMUL
  if (len >= 64 && has_pclmul()) {
    const auto* p = static_cast<const std::uint8_t*>(data);
    const std::size_t folded = len & ~std::size_t{15};
    const std::uint32_t c = fold_pclmul(p, folded, seed ^ 0xFFFFFFFFu);
    return crc32_slice8(p + folded, len - folded, c ^ 0xFFFFFFFFu);
  }
#endif
  return crc32_slice8(data, len, seed);
}

}  // namespace v6sonar::util
