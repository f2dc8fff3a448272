// Option parsing shared by the v6sonar and v6sonard command lines. A
// value is parsed whole; a bad one exits 2 with a message naming its
// flag.
#pragma once

#include <charconv>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
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

/// The options of a detect run, the same for `v6sonar detect` and
/// v6sonard: thresholds, shards, the event spill and the checkpoint.
struct RunOptions {
  int agg = 64;
  std::uint32_t min_dsts = 100;
  std::int64_t timeout_sec = 3'600;
  std::int64_t cold_after_sec = 0;  ///< demote idle sources (0 = off)
  std::size_t top = 20;             ///< rows printed; top-ports ranking width
  /// Shards: -1 when not given (one, or the checkpoint's when
  /// resuming); 0 = one per hardware thread.
  int threads = -1;
  std::size_t ring_cap = 1 << 14;  ///< per-worker ring slots
  std::string events_out;          ///< --events: spill the events here
  std::string checkpoint;          ///< --checkpoint: container path
};

/// Print "error: <what>" and exit(2): a bad command line.
[[noreturn]] void fail(const std::string& what);
/// The value after flag argv[i], advancing i; exit(2) when it is missing.
const char* value_of(int argc, char** argv, int& i);

/// If argv[i] is one of RunOptions' flags, parse it (and its value,
/// advancing i) into `o` and return true. A bad or missing value exits 2.
bool parse_run_option(RunOptions& o, int argc, char** argv, int& i);

}  // namespace v6sonar::cli
