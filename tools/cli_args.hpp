// Number parsing shared by the v6sonar and v6sonard command lines. A
// value is parsed whole; a bad one exits 2 with a message naming its
// flag.
#pragma once

#include <charconv>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <system_error>

#include "util/timebase.hpp"

namespace v6sonar::cli {

/// Parse the whole of `text` as an integer, or exit(2) with an error
/// naming the flag. Rejects empty strings, non-numeric input, trailing
/// garbage ("4x", "1.5"), and values that overflow T.
template <typename T>
T parse_int(const char* flag, const char* text) {
  T value{};
  const char* const end = text + std::strlen(text);
  const auto [p, ec] = std::from_chars(text, end, value);
  if (ec == std::errc::result_out_of_range) {
    std::fprintf(stderr, "error: %s value '%s' is out of range\n", flag, text);
    std::exit(2);
  }
  if (ec != std::errc{} || p != end) {
    std::fprintf(stderr, "error: %s needs an integer, got '%s'\n", flag, text);
    std::exit(2);
  }
  return value;
}

/// parse_int for a second count that becomes microseconds or a
/// steady-clock deadline: values past util::kMaxSeconds would overflow
/// those conversions, so they exit(2) too. The lower bound is the
/// caller's.
inline std::int64_t parse_seconds(const char* flag, const char* text) {
  const auto sec = parse_int<std::int64_t>(flag, text);
  if (sec > util::kMaxSeconds) {
    std::fprintf(stderr, "error: %s value '%s' is out of range (at most %lld seconds)\n", flag,
                 text, static_cast<long long>(util::kMaxSeconds));
    std::exit(2);
  }
  return sec;
}

}  // namespace v6sonar::cli
